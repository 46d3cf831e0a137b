package lp

// TwoPhase solves p cold with the two-phase primal method alone — the path
// every cold solve took before the dual start — so tests can hold the dual
// start to its results.
func TwoPhase(p *Problem, opt Options) *Solution {
	s := newSimplex(p, opt)
	s.initialPoint()
	return s.primal(false)
}
