package lp

import "math"

// Basis is an immutable snapshot of a simplex basis: the status of every
// structural and slack column plus the ordered basic set. A Basis exported
// from one solve can warm-start another solve of the same problem — or of a
// structurally identical problem whose bounds or right-hand sides have
// changed, the two cases branch-and-bound and budget sweeps produce:
//
//   - After a variable-bound change (branching) the old optimal basis stays
//     dual-feasible, so reoptimization runs the dual simplex for a handful of
//     pivots instead of a cold solve from the slack basis.
//   - After an RHS change (a new budget point) dual feasibility is likewise
//     preserved — the dual vector does not depend on b.
//
// A Basis never references the problem it came from and is safe to share
// across goroutines; Solve only reads it.
type Basis struct {
	n, m  int
	stat  []int8  // status per column, structural then slack (len n+m)
	basic []int32 // basis position -> column (len m)
}

// NumVars returns the structural-variable count the basis was built for.
func (b *Basis) NumVars() int { return b.n }

// NumRows returns the row count the basis was built for.
func (b *Basis) NumRows() int { return b.m }

// exportBasis snapshots the current basis. Artificial columns never appear in
// a snapshot: a basic artificial (possible at degenerate phase-1 exits, value
// 0) is substituted by its row's slack — the two columns differ only by the
// ±1 sign in the same row, so the substituted basis matrix stays nonsingular,
// and the slack's value 0 is within its bounds for every row sense.
func (s *simplex) exportBasis() *Basis {
	b := &Basis{
		n:     s.n,
		m:     s.m,
		stat:  make([]int8, s.n+s.m),
		basic: make([]int32, s.m),
	}
	copy(b.stat, s.stat[:s.n+s.m])
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		if int(j) >= s.n+s.m {
			j = int32(s.n + (int(j) - s.n - s.m)) // artificial -> its row's slack
		}
		b.basic[i] = j
		b.stat[j] = statBasic
	}
	return b
}

// installBasis adopts a snapshot as the starting basis: statuses are copied
// (coerced against the problem's *current* bounds, which may have tightened
// since export), the basis is refactorized, and basic values are recomputed.
// Returns false — leaving the caller to cold-start — when the snapshot's
// shape does not match this problem or the basis matrix has become singular.
func (s *simplex) installBasis(b *Basis) bool {
	if b == nil || b.n != s.n || b.m != s.m || len(b.stat) != s.n+s.m || len(b.basic) != s.m {
		return false
	}
	// Validate the basic set before touching solver state.
	if cap(s.seenBuf) < s.n+s.m {
		s.seenBuf = make([]bool, s.n+s.m)
	}
	seen := s.seenBuf[:s.n+s.m]
	for i := range seen {
		seen[i] = false
	}
	for _, j := range b.basic {
		if int(j) < 0 || int(j) >= s.n+s.m || seen[j] {
			return false
		}
		seen[j] = true
	}
	for j := 0; j < s.n+s.m; j++ {
		st := b.stat[j]
		if st == statBasic {
			if !seen[j] {
				return false
			}
			s.stat[j] = statBasic
			continue
		}
		// Coerce nonbasic statuses against the current bounds: branching may
		// have introduced or removed finite bounds since the snapshot.
		lo, hi := s.lower[j], s.upper[j]
		switch st {
		case statAtLower:
			if math.IsInf(lo, -1) {
				if math.IsInf(hi, 1) {
					st = statFree
				} else {
					st = statAtUpper
				}
			}
		case statAtUpper:
			if math.IsInf(hi, 1) {
				if math.IsInf(lo, -1) {
					st = statFree
				} else {
					st = statAtLower
				}
			}
		case statFree:
			switch {
			case !math.IsInf(lo, -1):
				st = statAtLower
			case !math.IsInf(hi, 1):
				st = statAtUpper
			}
		default:
			return false
		}
		s.stat[j] = st
	}
	copy(s.basis, b.basic)
	// Artificials stay sealed at zero outside phase 1.
	for i := 0; i < s.m; i++ {
		a := s.n + s.m + i
		s.lower[a], s.upper[a] = 0, 0
		s.stat[a] = statAtLower
	}
	return s.refactorAndRecompute()
}
