package main

import "repro/checkmate"

// outcome classifies what one zoo-plan solve returned.
type outcome string

const (
	proven  outcome = "proven" // a plan proven optimal
	planned outcome = "plan"   // a plan without an optimality proof
	none    outcome = "none"   // no plan
)

// seedOutcome records what one zoo-plan instance returned when the benchmark
// was defined (2 cores, Go 1.24, the 5 s limit), whether it ran to its
// limit, and why. The check counts a lost plan as a failure; overhead_geomean
// averages exactly the instances recorded with a plan, so an instance that
// newly returns one moves solved_share, not overhead_geomean. Later changes
// that solve the frontier instances claim against this table.
type seedOutcome struct {
	model   string
	frac    float64
	method  checkmate.Method
	outcome outcome
	atLimit bool
	why     string
}

var seedOutcomes = []seedOutcome{
	{"vgg16", 0.3, checkmate.Optimal, proven, false, "root LP (983 vars × 2,323 rows) is integral"},
	{"vgg16", 0.3, checkmate.Interval, proven, false, "root relaxation is integral"},
	{"vgg16", 0.3, checkmate.Approx, planned, true, "ε=0.2 deflates the budget below MinBudget; that infeasible relaxation runs ~25k iterations until the limit, and the ε≤0.05 roundings serve"},
	{"vgg16", 0.5, checkmate.Optimal, proven, false, "root LP is integral"},
	{"vgg16", 0.5, checkmate.Interval, proven, false, "root relaxation is integral"},
	{"vgg16", 0.5, checkmate.Approx, planned, true, "ε=0.3 deflates the budget below MinBudget; that relaxation runs ~22k iterations until the limit, and the ε≤0.1 roundings serve"},
	{"mobilenet", 0.3, checkmate.Optimal, proven, false, "root LP is integral"},
	{"mobilenet", 0.3, checkmate.Interval, proven, false, "root relaxation is integral"},
	{"mobilenet", 0.3, checkmate.Approx, planned, false, "ε-search completes in under 1 s; rounding proves nothing"},
	{"mobilenet", 0.5, checkmate.Optimal, proven, false, "root LP is integral"},
	{"mobilenet", 0.5, checkmate.Interval, proven, false, "root relaxation is integral"},
	{"mobilenet", 0.5, checkmate.Approx, planned, false, "ε-search completes; rounding proves nothing"},
	{"unet", 0.3, checkmate.Optimal, proven, false, "5 nodes after a 1,533-iteration root LP, in about 1.3–1.8 s"},
	{"unet", 0.3, checkmate.Interval, proven, false, "94 nodes"},
	{"unet", 0.3, checkmate.Approx, planned, false, "ε-search completes in about 1.6 s"},
	{"unet", 0.5, checkmate.Optimal, proven, false, "root LP is integral"},
	{"unet", 0.5, checkmate.Interval, proven, false, "root relaxation is integral"},
	{"unet", 0.5, checkmate.Approx, planned, false, "ε-search completes in about 1.2 s"},
	{"transformer", 0.3, checkmate.Optimal, planned, true, "finds the optimum (1.0692× ideal, which Interval proves) but ~550 nodes in 5 s do not close the gap"},
	{"transformer", 0.3, checkmate.Interval, proven, false, "453 nodes in about 0.15 s"},
	{"transformer", 0.3, checkmate.Approx, planned, false, "ε=0 rounding is feasible; ε-search completes"},
	{"transformer", 0.5, checkmate.Optimal, proven, false, "root LP is integral"},
	{"transformer", 0.5, checkmate.Interval, proven, false, "root relaxation is integral"},
	{"transformer", 0.5, checkmate.Approx, planned, false, "ε-search completes"},
	{"resnet50", 0.3, checkmate.Optimal, none, true, "root LP (10,964 vars × 32,010 rows) is cut off at the limit after ~2,800 iterations (~1.8 ms each); no incumbent"},
	{"resnet50", 0.3, checkmate.Interval, planned, true, "incumbent 1.0098× ideal after ~800 nodes; the bound does not close in 5 s"},
	{"resnet50", 0.3, checkmate.Approx, none, true, "the ε=0 relaxation, the same LP cold, does not finish in 5 s; no rounding"},
	{"resnet50", 0.5, checkmate.Optimal, none, true, "root LP is cut off at the limit after ~2,800 iterations; no incumbent"},
	{"resnet50", 0.5, checkmate.Interval, proven, false, "root relaxation is integral (1,379 iterations)"},
	{"resnet50", 0.5, checkmate.Approx, none, true, "the ε=0 relaxation does not finish in 5 s; no rounding"},
}

// expectedOutcome is in's outcome at the seed.
func expectedOutcome(in instance) outcome {
	for _, s := range seedOutcomes {
		if s.model == in.model && s.frac == in.frac && s.method == in.method {
			return s.outcome
		}
	}
	panic("perfbench: no seed outcome recorded for " + in.String())
}
