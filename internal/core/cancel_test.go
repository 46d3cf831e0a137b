package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/graph"
)

func cancelTestGraph(t *testing.T, layers int) *graph.Graph {
	t.Helper()
	fwd := graph.New(layers)
	for i := 0; i < layers; i++ {
		fwd.AddNode(graph.Node{Cost: 1, Mem: 1})
	}
	for i := 1; i < layers; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	res, err := autodiff.Differentiate(fwd, autodiff.Options{UnitCost: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func TestSolveILPCtxPreCancelled(t *testing.T) {
	g := cancelTestGraph(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := SolveILP(ctx, Instance{G: g, Budget: 6}, SolveOptions{TimeLimit: time.Minute})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("pre-cancelled solve took %v", d)
	}
}

func TestSolveILPCtxCancelMidSolve(t *testing.T) {
	g := cancelTestGraph(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := SolveILP(ctx, Instance{G: g, Budget: 9}, SolveOptions{TimeLimit: time.Minute})
	elapsed := time.Since(start)
	if err == nil {
		// The solve legitimately beat the cancellation on a fast machine.
		if elapsed > time.Minute {
			t.Fatalf("solve took %v and still returned no error", elapsed)
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

func TestSolveRelaxationCtxPreCancelled(t *testing.T) {
	g := cancelTestGraph(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := SolveRelaxation(ctx, Instance{G: g, Budget: 8}, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
