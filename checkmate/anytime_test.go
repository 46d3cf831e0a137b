package checkmate

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// collectObserver records every event for post-hoc assertions.
type collectObserver struct{ events []Event }

func (c *collectObserver) OnEvent(e Event) { c.events = append(c.events, e) }

func (c *collectObserver) degradations() []Event {
	var out []Event
	for _, e := range c.events {
		if e.Kind == EventDegraded {
			out = append(out, e)
		}
	}
	return out
}

// TestAnytimeFastSolveNotDegraded: when the optimal rung proves optimality
// inside its slice, the ladder adds nothing — same schedule, no Degraded
// flag, Method names the serving rung.
func TestAnytimeFastSolveNotDegraded(t *testing.T) {
	wl := loadTest(t, 8)
	sched, err := Solve(context.Background(), Request{
		Workload: wl, Method: Anytime, Budget: tightBudget(wl), TimeLimit: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Method != Optimal {
		t.Fatalf("Method = %q, want %q (first rung served)", sched.Method, Optimal)
	}
	if sched.Degraded || sched.DegradedCode != "" || sched.DegradedReason != "" {
		t.Fatalf("fast proven solve marked degraded: %+v", sched)
	}
	if !sched.Optimal {
		t.Fatalf("optimality not proven on an unconstrained small solve")
	}
}

// TestAnytimePanicFallsToInterval: a solver-worker panic in the optimal
// rung must not surface as an error — the ladder falls to the interval
// rung, serves its schedule, and records the degradation.
func TestAnytimePanicFallsToInterval(t *testing.T) {
	defer faultinject.Enable(faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		faultinject.MILPWorker: {Panic: "chaos"},
	}))()

	wl := trainingWorkload(t, 6)
	budget := (wl.MinBudget() + wl.IdealPeak()) / 2
	obs := &collectObserver{}
	sched, err := Solve(context.Background(), Request{
		Workload: wl, Method: Anytime, Budget: budget,
		TimeLimit: time.Minute, Observer: obs,
	})
	if err != nil {
		t.Fatalf("ladder did not absorb the worker panic: %v", err)
	}
	if sched.Method != Interval {
		t.Fatalf("Method = %q, want %q", sched.Method, Interval)
	}
	if !sched.Degraded || sched.DegradedCode != "panic" {
		t.Fatalf("degradation not recorded: degraded=%v code=%q", sched.Degraded, sched.DegradedCode)
	}
	if !strings.Contains(sched.DegradedReason, "panic") || !strings.Contains(sched.DegradedReason, "served by interval") {
		t.Fatalf("DegradedReason = %q", sched.DegradedReason)
	}
	degs := obs.degradations()
	if len(degs) == 0 {
		t.Fatal("no Degraded event emitted")
	}
	if degs[0].From != Optimal || degs[0].To != Interval || degs[0].Reason == "" {
		t.Fatalf("Degraded event = %+v, want optimal→interval with a reason", degs[0])
	}
	// The terminal Done must carry the degraded schedule.
	last := obs.events[len(obs.events)-1]
	if last.Kind != EventDone || last.Schedule != sched {
		t.Fatalf("last event = %+v, want Done with the served schedule", last.Kind)
	}
}

// TestAnytimeDeadlineShorterThanOptimal: on a budget tight enough that the
// MILP provably cannot close its gap inside the deadline (it runs >3s
// unconstrained), the ladder still returns a feasible schedule within the
// deadline plus grace, marked degraded — either the optimal rung's
// unproven incumbent or a fallback rung's schedule.
func TestAnytimeDeadlineShorterThanOptimal(t *testing.T) {
	wl := loadTest(t, 10)
	budget := wl.MinBudget() + (wl.CheckpointAllPeak()-wl.MinBudget())/10
	start := time.Now()
	sched, err := Solve(context.Background(), Request{
		Workload: wl, Method: Anytime, Budget: budget, TimeLimit: 500 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline-bound anytime solve failed: %v", err)
	}
	if !sched.Degraded {
		t.Fatalf("slow optimal rung did not mark degradation: %+v", sched)
	}
	if sched.Method == Anytime || sched.Method == "" {
		t.Fatalf("Method = %q, want the concrete serving rung", sched.Method)
	}
	// Grace: plan generation and scheduling overhead ride on top of the
	// solver deadline; CI machines are slow.
	if elapsed > 500*time.Millisecond+10*time.Second {
		t.Fatalf("anytime solve took %v against a 500ms deadline", elapsed)
	}
}

// TestAnytimeOptimalInfeasibleIsDefinitive: the MILP's infeasibility
// verdict covers the full schedule space, so the ladder returns
// ErrInfeasible immediately instead of wasting the deadline on rungs that
// cannot disagree.
func TestAnytimeOptimalInfeasibleIsDefinitive(t *testing.T) {
	wl := loadTest(t, 8)
	budget := wl.MinBudget() / 2
	if budget <= 0 {
		t.Skip("workload min budget too small to undercut")
	}
	obs := &collectObserver{}
	_, err := Solve(context.Background(), Request{
		Workload: wl, Method: Anytime, Budget: budget,
		TimeLimit: time.Minute, Observer: obs,
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if n := len(obs.degradations()); n != 0 {
		t.Fatalf("%d Degraded events on a definitive infeasibility", n)
	}
}

// TestAnytimeSkipsHopelessOptimalRung: on a graph far beyond the MILP's
// reach the optimal rung is skipped outright — its slice goes to the rungs
// that can actually use it — and the skip is visible in the event stream
// and the degradation record.
func TestAnytimeSkipsHopelessOptimalRung(t *testing.T) {
	wl := trainingWorkload(t, 150)
	obs := &collectObserver{}
	sched, err := Solve(context.Background(), Request{
		Workload: wl, Method: Anytime, Budget: wl.IdealPeak() - 1,
		TimeLimit: time.Second, Observer: obs,
	})
	if err != nil {
		t.Fatalf("anytime solve on a 300-node graph failed: %v", err)
	}
	if sched.Method == Optimal {
		t.Fatalf("optimal rung served a 300-node graph under a 1s deadline")
	}
	if !sched.Degraded || sched.DegradedCode != "skipped" {
		t.Fatalf("skip not recorded: degraded=%v code=%q reason=%q",
			sched.Degraded, sched.DegradedCode, sched.DegradedReason)
	}
	degs := obs.degradations()
	if len(degs) == 0 || degs[0].From != Optimal || !strings.Contains(degs[0].Reason, "skipped") {
		t.Fatalf("Degraded events = %+v, want an optimal-rung skip first", degs)
	}
}

// TestAnytimeCallerCancellationPassesThrough: the caller's cancellation is
// not a degradation — it aborts the ladder.
func TestAnytimeCallerCancellationPassesThrough(t *testing.T) {
	wl := chainWorkload(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(ctx, Request{
		Workload: wl, Method: Anytime,
		Budget: wl.CheckpointAllPeak(), TimeLimit: time.Minute,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAnytimeUnpartitionedRejected: Unpartitioned is Optimal-only; the
// fallback rungs would silently solve a different problem.
func TestAnytimeUnpartitionedRejected(t *testing.T) {
	wl := chainWorkload(t, 8)
	_, err := Solve(context.Background(), Request{
		Workload: wl, Method: Anytime, Budget: wl.CheckpointAllPeak(), Unpartitioned: true,
	})
	if err == nil || !strings.Contains(err.Error(), "Unpartitioned") {
		t.Fatalf("err = %v, want Unpartitioned rejection", err)
	}
}

// TestAutoReroutesToAnytimeOnTightDeadline: Auto stays on the preferred
// method at a comfortable deadline and reroutes to the ladder when the
// projection clearly overruns — and cache keys agree with the routing.
func TestAutoReroutesToAnytimeOnTightDeadline(t *testing.T) {
	small := trainingWorkload(t, 20)
	budget := small.MinBudget() + (small.IdealPeak()-small.MinBudget())/4

	comfy := Request{Workload: small, Method: Auto, Budget: budget, TimeLimit: time.Hour}
	if got := comfy.Resolve(); got != Optimal {
		t.Fatalf("comfortable deadline resolved to %q, want %q", got, Optimal)
	}
	tight := Request{Workload: small, Method: Auto, Budget: budget, TimeLimit: time.Millisecond}
	if got := tight.Resolve(); got != Anytime {
		t.Fatalf("1ms deadline resolved to %q, want %q", got, Anytime)
	}

	// Keys must follow the routing: the Auto key under the tight deadline is
	// the Anytime key, not the Optimal one.
	opt := tight.options()
	if a, b := small.SolveKeyFor(Auto, budget, opt), small.SolveKeyFor(Anytime, budget, opt); a != b {
		t.Fatalf("Auto key %v != Anytime key %v under a tight deadline", a, b)
	}

	// Large graphs reroute off Interval the same way.
	large := trainingWorkload(t, 200)
	lcomfy := Request{Workload: large, Method: Auto, Budget: large.CheckpointAllPeak(), TimeLimit: time.Hour}
	if got := lcomfy.Resolve(); got != Interval {
		t.Fatalf("large comfortable deadline resolved to %q, want %q", got, Interval)
	}
	ltight := Request{Workload: large, Method: Auto, Budget: large.MinBudget(), TimeLimit: time.Millisecond}
	if got := ltight.Resolve(); got != Anytime {
		t.Fatalf("large 1ms deadline resolved to %q, want %q", got, Anytime)
	}
}

// TestAnytimeKeyDomain: anytime keys collide with no other method's and
// change with the deadline that shapes the ladder's slices.
func TestAnytimeKeyDomain(t *testing.T) {
	wl := chainWorkload(t, 20)
	budget := wl.CheckpointAllPeak()
	opt := SolveOptions{TimeLimit: time.Second}
	any := wl.SolveKeyFor(Anytime, budget, opt)
	for _, m := range []Method{Optimal, Approx, Interval} {
		if wl.SolveKeyFor(m, budget, opt) == any {
			t.Fatalf("anytime key collides with %q", m)
		}
	}
	if wl.SolveKeyFor(Anytime, budget, SolveOptions{TimeLimit: 2 * time.Second}) == any {
		t.Fatal("anytime key ignores the deadline")
	}
	if wl.SolveKeyFor(Anytime, budget, opt) != any {
		t.Fatal("anytime key not deterministic")
	}
}
