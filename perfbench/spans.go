package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// spanSummary condenses span trees: per span name, self time (duration
// minus the direct children's), total duration, span count, and numeric
// attributes summed under "<span>.<attr>" (a true bool counts 1).
type spanSummary struct {
	solves float64
	self   map[string]float64 // ms
	total  map[string]float64 // ms
	count  map[string]float64
	attr   map[string]float64
}

func newSpanSummary() *spanSummary {
	return &spanSummary{
		self: map[string]float64{}, total: map[string]float64{},
		count: map[string]float64{}, attr: map[string]float64{},
	}
}

func (s *spanSummary) add(o spanSummary) {
	s.solves += o.solves
	for k, v := range o.self {
		s.self[k] += v
	}
	for k, v := range o.total {
		s.total[k] += v
	}
	for k, v := range o.count {
		s.count[k] += v
	}
	for k, v := range o.attr {
		s.attr[k] += v
	}
}

// record adds one span to the summary.
func (s *spanSummary) record(name string, total, self float64, attrs map[string]any) {
	s.self[name] += self
	s.total[name] += total
	s.count[name]++
	for k, v := range attrs {
		if x, ok := num(v); ok {
			s.attr[name+"."+k] += x
		}
	}
}

// summarizeTrace summarizes the span tree of one in-process solve.
func summarizeTrace(tr *telemetry.Trace) spanSummary {
	out := *newSpanSummary()
	out.solves = 1
	spans := tr.Spans()
	childSum := map[int64]time.Duration{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			childSum[sp.Parent] += sp.End - sp.Start
		}
	}
	for _, sp := range spans {
		attrs := make(map[string]any, len(sp.Attrs))
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		d := sp.End - sp.Start
		out.record(sp.Name, ms(d), ms(max(d-childSum[sp.ID], 0)), attrs)
	}
	return out
}

// summarizeChrome summarizes one solve trace served as Chrome trace_event
// JSON by GET /v1/solve/trace?key=. The format carries no parent links, so
// nesting is rebuilt from time containment within each lane.
func summarizeChrome(data []byte) (spanSummary, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return spanSummary{}, fmt.Errorf("decoding solve trace: %w", err)
	}
	evs := doc.TraceEvents[:0]
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			evs = append(evs, e)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.Dur > b.Dur
	})
	childSum := make([]float64, len(evs))
	stacks := map[int][]int{}
	for i, e := range evs {
		st := stacks[e.TID]
		for len(st) > 0 {
			top := evs[st[len(st)-1]]
			if e.TS < top.TS+top.Dur {
				break
			}
			st = st[:len(st)-1]
		}
		if len(st) > 0 {
			childSum[st[len(st)-1]] += e.Dur
		}
		stacks[e.TID] = append(st, i)
	}
	out := *newSpanSummary()
	out.solves = 1
	for i, e := range evs {
		out.record(e.Name, e.Dur/1e3, math.Max(e.Dur-childSum[i], 0)/1e3, e.Args)
	}
	return out, nil
}

func num(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// geomean is the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeCallUS times f alone and returns the median of 31 calls in µs.
func timeCallUS(f func()) float64 {
	times := make([]float64, 31)
	for i := range times {
		start := time.Now()
		f()
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return quantile(times, 0.5)
}
