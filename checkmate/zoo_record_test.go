package checkmate

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/milp"
	"repro/internal/schedule"
)

var updateZooRecord = flag.Bool("update", false, "rewrite testdata/zoo_record.json from this run")

const zooRecordFile = "testdata/zoo_record.json"

// The zoo record pins the answers and solver counts of perfbench's zoo-plan
// grid: vgg16, mobilenet, unet, transformer and resnet50 at batch 4 and 12
// segments, at budgets 30% and 50% of the way from MinBudget to
// CheckpointAllPeak, under Optimal, Interval and Approx. It holds the 26
// instances that finish inside the grid's 5 s limit, plus resnet50 30%
// Interval run to its proof. A change that moves a pivot, a node or a plan
// shows the move in the record's diff.
type zooRecord struct {
	GOARCH    string           `json:"goarch"`
	Go        string           `json:"go"`
	Instances []zooRecordEntry `json:"instances"`
}

type zooRecordEntry struct {
	Instance string  `json:"instance"`
	Budget   int64   `json:"budget"`
	Cost     float64 `json:"cost"`
	CostBits string  `json:"cost_bits"`
	Optimal  bool    `json:"optimal"`
	Method   Method  `json:"method"`
	Nodes    int     `json:"nodes"`
	// Counters holds every integer milp.Counters field; NodesPerSec, the
	// one rate, is wall clock.
	Counters   map[string]int64 `json:"counters"`
	PlanSHA256 string           `json:"plan_sha256"`
}

type zooPoint struct {
	model string
	frac  float64
}

type zooRecordInstance struct {
	zooPoint
	method Method
}

func (in zooRecordInstance) String() string {
	return fmt.Sprintf("%s@%.1f/%s", in.model, in.frac, in.method)
}

// zooRecordInstances lists the recorded instances in the grid's order.
func zooRecordInstances() []zooRecordInstance {
	var out []zooRecordInstance
	for _, m := range []string{"vgg16", "mobilenet", "unet", "transformer", "resnet50"} {
		for i, f := range []float64{0.3, 0.5} {
			for _, me := range []Method{Optimal, Interval, Approx} {
				in := zooRecordInstance{zooPoint{m, f}, me}
				if i == 0 && !tightFinishes(in) {
					continue
				}
				out = append(out, in)
			}
		}
	}
	return out
}

// tightFinishes reports whether a 30% instance is recorded. vgg16 and
// mobilenet fit IdealPeak there and are presolved; unet solves under every
// method, transformer under Interval and Approx, and resnet50 under
// Interval, which needs more than the grid's limit to prove.
func tightFinishes(in zooRecordInstance) bool {
	switch in.model {
	case "vgg16", "mobilenet", "unet":
		return true
	case "transformer":
		return in.method != Optimal
	}
	return in.method == Interval
}

// zooBudget places the budget as perfbench's zoo grid does.
func zooBudget(wl *Workload, frac float64) int64 {
	lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
	return lo + int64(frac*float64(hi-lo))
}

// zooResult is one recorded solve and what the cross-method checks need.
type zooResult struct {
	inst   zooRecordInstance
	budget int64
	sched  *Schedule
	bounds []float64
}

func counterMap(c milp.Counters) map[string]int64 {
	v := reflect.ValueOf(c)
	out := map[string]int64{}
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Int64 {
			out[v.Type().Field(i).Name] = f.Int()
		}
	}
	return out
}

func planSHA256(t *testing.T, p *schedule.Plan) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func (r *zooResult) entry(t *testing.T) zooRecordEntry {
	s := r.sched
	return zooRecordEntry{
		Instance:   r.inst.String(),
		Budget:     r.budget,
		Cost:       s.Cost,
		CostBits:   fmt.Sprintf("%016x", math.Float64bits(s.Cost)),
		Optimal:    s.Optimal,
		Method:     s.Method,
		Nodes:      s.Nodes,
		Counters:   counterMap(s.Solver),
		PlanSHA256: planSHA256(t, s.Plan),
	}
}

// TestZooRecord solves every recorded instance with the default 60 s limit
// and compares its answer and counts with testdata/zoo_record.json exactly.
// On the same solves it checks what must hold across methods: each plan
// re-simulates within its budget at its reported peak, every bound an
// observer saw is at most every cost of its point, a proven Optimal cost is
// at most every method's and every fitting baseline's cost, and a certified
// Interval cost equals Optimal's proven cost. -update rewrites the record.
func TestZooRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the zoo grid; skipped under -short")
	}
	var want zooRecord
	if !*updateZooRecord {
		data, err := os.ReadFile(zooRecordFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		// Go may fuse multiply-adds on other architectures, which changes
		// the bits of every LP.
		if want.GOARCH != runtime.GOARCH {
			t.Skipf("record made on %s, running on %s", want.GOARCH, runtime.GOARCH)
		}
	}

	ctx := context.Background()
	wls := map[string]*Workload{}
	var results []*zooResult
	for _, in := range zooRecordInstances() {
		wl := wls[in.model]
		if wl == nil {
			var err error
			if wl, err = Load(in.model, Options{Batch: 4, CoarseSegments: 12}); err != nil {
				t.Fatal(err)
			}
			wls[in.model] = wl
		}
		r := &zooResult{inst: in, budget: zooBudget(wl, in.frac)}
		obs := ObserverFunc(func(e Event) {
			if (e.Kind == EventIncumbent || e.Kind == EventBound) && !math.IsInf(e.Bound, 0) {
				r.bounds = append(r.bounds, e.Bound)
			}
		})
		sched, err := Solve(ctx, Request{Workload: wl, Method: in.method, Budget: r.budget, Observer: obs, ProgressInterval: -1})
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		r.sched = sched
		results = append(results, r)
	}

	got := zooRecord{GOARCH: runtime.GOARCH, Go: runtime.Version()}
	for _, r := range results {
		got.Instances = append(got.Instances, r.entry(t))
	}
	if *updateZooRecord {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(zooRecordFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		compareZooRecord(t, want, got)
	}
	checkZooPlans(t, wls, results)
	checkZooAcrossMethods(t, wls, results)
}

func compareZooRecord(t *testing.T, want, got zooRecord) {
	t.Helper()
	release := ""
	if want.Go != got.Go {
		release = fmt.Sprintf(" (recorded with %s, running %s)", want.Go, got.Go)
	}
	if len(want.Instances) != len(got.Instances) {
		t.Fatalf("%d instances solved, %d recorded%s", len(got.Instances), len(want.Instances), release)
	}
	for i, w := range want.Instances {
		g := got.Instances[i]
		if !reflect.DeepEqual(w, g) {
			wj, _ := json.Marshal(w)
			gj, _ := json.Marshal(g)
			t.Errorf("%s differs from the record%s:\n got    %s\n record %s", w.Instance, release, gj, wj)
		}
	}
}

// checkZooPlans re-simulates every plan on its workload's graph.
func checkZooPlans(t *testing.T, wls map[string]*Workload, results []*zooResult) {
	t.Helper()
	for _, r := range results {
		wl := wls[r.inst.model]
		sim, err := schedule.Simulate(wl.Graph, r.sched.Plan, wl.Overhead)
		if err != nil {
			t.Errorf("%s: plan does not simulate: %v", r.inst, err)
			continue
		}
		if sim.PeakBytes > r.budget || sim.PeakBytes != r.sched.PeakBytes {
			t.Errorf("%s: plan peaks at %d, reported %d, budget %d", r.inst, sim.PeakBytes, r.sched.PeakBytes, r.budget)
		}
	}
}

// Relative tolerances of the cross-method checks: a reported bound may
// exceed a cost only by the rounding of its LP objective, and Optimal and
// Interval prove their costs within the default relative gap.
const (
	boundTol = 1e-9
	gapTol   = 1e-6
)

// checkZooAcrossMethods compares the methods solved at each budget point,
// and the baselines that fit it.
func checkZooAcrossMethods(t *testing.T, wls map[string]*Workload, results []*zooResult) {
	t.Helper()
	byPoint := map[zooPoint][]*zooResult{}
	var points []zooPoint
	for _, r := range results {
		p := r.inst.zooPoint
		if byPoint[p] == nil {
			points = append(points, p)
		}
		byPoint[p] = append(byPoint[p], r)
	}
	for _, p := range points {
		group := byPoint[p]
		name := fmt.Sprintf("%s@%.1f", p.model, p.frac)
		budget := group[0].budget
		costs := map[string]float64{}
		for _, r := range group {
			costs[string(r.inst.method)] = r.sched.Cost
		}
		for _, b := range BaselineNames() {
			s, err := Solve(context.Background(), Request{Workload: wls[p.model], Method: Baseline, Baseline: b, Budget: budget})
			if err == nil {
				costs["baseline "+b] = s.Cost
			}
		}
		for _, r := range group {
			for _, b := range r.bounds {
				for by, c := range costs {
					if b > c*(1+boundTol) {
						t.Errorf("%s: %s saw bound %.12g above the %s cost %.12g", name, r.inst.method, b, by, c)
					}
				}
			}
		}
		var opt, itv *Schedule
		for _, r := range group {
			switch r.inst.method {
			case Optimal:
				opt = r.sched
			case Interval:
				itv = r.sched
			}
		}
		if opt == nil || !opt.Optimal {
			continue
		}
		for by, c := range costs {
			if c < opt.Cost*(1-gapTol) {
				t.Errorf("%s: %s cost %.12g is below the proven optimum %.12g", name, by, c, opt.Cost)
			}
		}
		if itv != nil && itv.Optimal && math.Abs(itv.Cost-opt.Cost) > gapTol*opt.Cost {
			t.Errorf("%s: Interval certified %.12g, Optimal proved %.12g", name, itv.Cost, opt.Cost)
		}
	}
}
