package checkmate

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestWorkloadFingerprint(t *testing.T) {
	a, err := Load("mobilenet", Options{Batch: 2, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("mobilenet", Options{Batch: 2, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("rebuilding the same workload changed its fingerprint")
	}
	c, err := Load("mobilenet", Options{Batch: 4, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("different batch sizes share a fingerprint")
	}
}

func TestSolveKey(t *testing.T) {
	wl, err := Load("mobilenet", Options{Batch: 2, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	opt := SolveOptions{TimeLimit: time.Minute}
	base := wl.SolveKey(1<<30, opt, false)
	if base != wl.SolveKey(1<<30, opt, false) {
		t.Fatalf("SolveKey not deterministic")
	}
	if base == wl.SolveKey(1<<31, opt, false) {
		t.Fatalf("budget not part of the key")
	}
	if base == wl.SolveKey(1<<30, opt, true) {
		t.Fatalf("solver kind not part of the key")
	}
	if base == wl.SolveKey(1<<30, SolveOptions{TimeLimit: time.Minute, RelGap: 0.05}, false) {
		t.Fatalf("RelGap not part of the key")
	}
	if base == wl.Fingerprint() {
		t.Fatalf("SolveKey must differ from the bare workload fingerprint")
	}
}

func TestSolveCtxCancellation(t *testing.T) {
	wl, err := Load("mobilenet", Options{Batch: 2, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{Optimal, Approx} {
		if _, err := Solve(ctx, Request{Workload: wl, Method: m, Budget: 1 << 30}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s solve err = %v, want context.Canceled", m, err)
		}
	}
}
