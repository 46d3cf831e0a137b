package interval

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/milp"
	"repro/internal/telemetry"
)

func TestSolveCtxPreCancelled(t *testing.T) {
	inst := randomInstance(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Solve(ctx, inst, Options{TimeLimit: time.Minute})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("pre-cancelled solve took %v", d)
	}
}

// TestSolveCtxCancelMidSearch cancels while the best-first loop is running.
// An injected per-node latency pins the search inside the loop long enough
// for the cancellation to land there deterministically.
func TestSolveCtxCancelMidSearch(t *testing.T) {
	defer faultinject.Enable(faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		faultinject.IntervalSearch: {Latency: 20 * time.Millisecond},
	}))()

	inst := randomInstance(7)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Solve(ctx, inst, Options{TimeLimit: time.Minute})
	elapsed := time.Since(start)
	if err == nil {
		// The search legitimately finished before the cancel on a machine
		// that drains the heap in under three slowed nodes.
		if res == nil || elapsed > time.Minute {
			t.Fatalf("no error after %v and res = %v", elapsed, res)
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestSolveCtxDeadlineIsLimitNotError: the solver's own TimeLimit expiring
// is a limit outcome (StatusFeasible with the incumbent, or StatusLimit),
// never an error — the distinction the anytime ladder relies on.
func TestSolveCtxDeadlineIsLimitNotError(t *testing.T) {
	defer faultinject.Enable(faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		faultinject.IntervalSearch: {Latency: 25 * time.Millisecond},
	}))()

	inst := randomInstance(11)
	res, err := Solve(context.Background(), inst, Options{TimeLimit: 60 * time.Millisecond})
	if err != nil {
		t.Fatalf("deadline expiry returned error %v, want limit status", err)
	}
	switch res.Status {
	case milp.StatusFeasible, milp.StatusLimit, milp.StatusOptimal:
		// Optimal is possible when the root completion already closes the
		// certificate before the first slowed node.
	default:
		t.Fatalf("status = %v after deadline, want feasible/limit", res.Status)
	}
}

// TestSolveCtxContainsPanics: a panic inside the search surfaces as a
// *telemetry.PanicError with a captured stack instead of killing the
// process.
func TestSolveCtxContainsPanics(t *testing.T) {
	defer faultinject.Enable(faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		faultinject.IntervalSearch: {Panic: "chaos"},
	}))()

	res, err := Solve(context.Background(), randomInstance(5), Options{TimeLimit: time.Minute})
	if err == nil {
		t.Fatalf("injected panic returned no error (res = %+v)", res)
	}
	var pe *telemetry.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *telemetry.PanicError", err, err)
	}
	if pe.Op != "interval.search" || len(pe.Stack) == 0 {
		t.Fatalf("panic error missing op/stack: %+v", pe)
	}
}
