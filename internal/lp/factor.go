package lp

import (
	"errors"
	"math"
	"slices"
)

// factor maintains an LU factorization of the simplex basis matrix B plus a
// product-form-of-the-inverse (PFI) eta file for pivots performed since the
// last refactorization.
//
// Simplex bases from structured LPs are nearly triangular, so refactorize
// first computes a triangularizing column order by singleton peeling (the
// classic Tomlin/Markowitz preprocessing): column singletons pivot with zero
// fill, row singletons fix forced pivots, and only the small residual "bump"
// undergoes general sparse elimination (Gilbert-Peierls with a
// fill-minimizing threshold pivot rule). Without this, basis fill-in
// dominates the entire solve.
//
// Most basis slots of a Checkmate LP hold slack columns, unit columns e_r.
// The engine marks them (unit), and refactorize gives each one whose planned
// row is still free its trivial factor directly; only the structural columns
// pay for the column callback and elimination.
//
// Indexing: basis slots (the caller's column positions) are factored in a
// permuted processing order. L and U are stored in processing order; pivRow
// maps processing position → original constraint row, slotOfPos/posOfSlot
// map between slot and processing spaces. FTRAN/BTRAN convert at the
// boundaries so callers only ever see slot space. Eta vectors live in slot
// space.
type factor struct {
	m int

	// L: unit lower triangular (processing order). Column t's off-diagonal
	// entries, in original-row indexing, are lIdx/lVal[lPtr[t]:lPtr[t+1]];
	// refactorize appends the columns in processing order. lCols lists the
	// positions whose column has any, ascending: simplex bases are nearly
	// triangular, so L is nearly the identity and the solves visit only
	// these.
	lPtr  []int32
	lIdx  []int32
	lVal  []float64
	lCols []int32
	// U: upper triangular in processing space, column k's off-diagonals at
	// uIdx/uVal[uPtr[k]:uPtr[k+1]], likewise appended in processing order.
	uPtr  []int32
	uIdx  []int32
	uVal  []float64
	uDiag []float64
	// The same off-diagonals by row (row t holds the columns k > t with a
	// U[t][k] entry), rebuilt at each refactorization, so BTRAN's Uᵀ solve
	// scatters from each nonzero instead of gathering over all of U.
	urPtr []int32
	urIdx []int32
	urVal []float64

	pivRow []int32 // processing position -> original row
	rowPos []int32 // original row -> processing position

	slotOfPos []int32 // processing position -> basis slot
	posOfSlot []int32 // basis slot -> processing position

	// unit[slot] is r when basis slot holds the unit column e_r, else -1.
	// The engine fills it before each refactorization; refactorize never
	// calls the column callback for a marked slot.
	unit []int32

	// Eta file (slot space).
	etaP    []int32
	etaPiv  []float64
	etaIdx  [][]int32
	etaVal  [][]float64
	numEtas int

	work  []float64 // dense scratch, len m, kept zeroed between uses
	work2 []float64
	work3 []float64

	// Hypersparse solves (ftranSparse, btranSparse): a position-space
	// scratch kept zeroed between uses, the heap that orders the U solve,
	// and the pattern size past which a solve finishes with the dense sweep.
	sparse    []float64
	heap      []int32
	sparseMax int

	// Marks shared by the Gilbert-Peierls symbolic reach and the sparse
	// solves' pattern bookkeeping: entry i is marked iff seen[i] == epoch.
	seen    []int32
	epoch   int32
	reach   []int32
	dfs     []int32
	dfsIter []int32

	// Scratch for singleton peeling. The basis pattern, by slot for the
	// columns other than unit columns (patIdx[patPtr[slot]:patPtr[slot+1]])
	// and by row for the same columns (rowSlots[rsPtr[r]:rsPtr[r+1]],
	// ascending); unitAt[r] is the slot of the unit column e_r, or -1.
	patPtr   []int32
	patIdx   []int32
	rsPtr    []int32
	rowSlots []int32
	unitAt   []int32
	rowCount []int32 // unordered columns containing each active row
	colCount []int32 // active rows of each unordered column
	order    []int32 // processing order of slots
	sugg     []int32 // suggested pivot row per slot (-1 = none)

	processed []bool  // planOrder: slot already ordered
	rowActive []bool  // planOrder: row still unpivoted
	colQ      []int32 // planOrder: column-singleton queue
	rowQ      []int32 // planOrder: row-singleton queue
	open      []int32 // planOrder: unordered slots, ascending, for the bump pick
	touched   []int32 // refactorize: rows touched by the current column
}

var errSingular = errors.New("lp: basis is numerically singular")

func newFactor(m int) *factor {
	f := &factor{
		m:         m,
		lPtr:      make([]int32, m+1),
		uPtr:      make([]int32, m+1),
		uDiag:     make([]float64, m),
		urPtr:     make([]int32, m+1),
		pivRow:    make([]int32, m),
		rowPos:    make([]int32, m),
		slotOfPos: make([]int32, m),
		posOfSlot: make([]int32, m),
		unit:      make([]int32, m),
		work:      make([]float64, m),
		work2:     make([]float64, m),
		work3:     make([]float64, m),
		sparse:    make([]float64, m),
		sparseMax: m / 16,
		seen:      make([]int32, m),
		reach:     make([]int32, 0, m),
		dfs:       make([]int32, 0, 64),
		dfsIter:   make([]int32, 0, 64),
		patPtr:    make([]int32, m+1),
		rsPtr:     make([]int32, m+2),
		unitAt:    make([]int32, m),
		rowCount:  make([]int32, m),
		colCount:  make([]int32, m),
		order:     make([]int32, 0, m),
		sugg:      make([]int32, m),
		processed: make([]bool, m),
		rowActive: make([]bool, m),
		touched:   make([]int32, 0, 64),
	}
	for i := range f.unit {
		f.unit[i] = -1
	}
	return f
}

// reset discards the eta file so the factorization state from a previous
// solve cannot leak into the next one. The backing arrays are kept — that is
// the point of reusing the factor.
func (f *factor) reset() {
	f.numEtas = 0
}

// pattern returns the rows of basis slot's column.
func (f *factor) pattern(slot int32) []int32 {
	if f.unit[slot] >= 0 {
		return f.unit[slot : slot+1]
	}
	return f.patIdx[f.patPtr[slot]:f.patPtr[slot+1]]
}

// lcol returns L column t's off-diagonal rows and values.
func (f *factor) lcol(t int32) ([]int32, []float64) {
	a, b := f.lPtr[t], f.lPtr[t+1]
	return f.lIdx[a:b], f.lVal[a:b]
}

// ucol returns U column k's off-diagonal positions and values.
func (f *factor) ucol(k int32) ([]int32, []float64) {
	a, b := f.uPtr[k], f.uPtr[k+1]
	return f.uIdx[a:b], f.uVal[a:b]
}

// slotsOf returns the slots of the columns other than unit columns that
// contain row r, ascending.
func (f *factor) slotsOf(r int32) []int32 { return f.rowSlots[f.rsPtr[r]:f.rsPtr[r+1]] }

// planOrder computes a triangularizing processing order of the basis slots
// by column- and row-singleton peeling over the symbolic patterns, leaving
// non-triangular bump columns last. It fills f.order and f.sugg.
//
// Column singletons go first, from one last-in-first-out queue that starts
// with the initial singletons in ascending slot order; row singletons follow
// from another, each pivot's new column singletons first; the bump columns
// come last. The unit columns stay out of the row lists (unitAt finds them)
// and out of the queues: each is an initial singleton, taken at its turn in
// the descending sweep that stands in for the queue's initial contents.
func (f *factor) planOrder() {
	m := int32(f.m)
	f.order = f.order[:0]
	clear(f.processed)
	// Row → slot lists of the other columns by counting, ascending within
	// each row: count row r at ptr[r+2], so that the prefix sums put row
	// r's start at ptr[r+1] and the fill, advancing it, leaves it at ptr[r].
	ptr := f.rsPtr
	clear(ptr)
	for r := range f.unitAt {
		f.unitAt[r] = -1
		f.rowActive[r] = true
	}
	for slot := int32(0); slot < m; slot++ {
		f.sugg[slot] = -1
		if u := f.unit[slot]; u >= 0 {
			f.unitAt[u] = slot
			f.colCount[slot] = 1
			continue
		}
		rows := f.pattern(slot)
		f.colCount[slot] = int32(len(rows))
		for _, r := range rows {
			ptr[r+2]++
		}
	}
	// A row whose only column is a unit column never pivots from the row
	// queue: that column takes the row in the sweep, before the queue runs.
	f.rowQ = f.rowQ[:0]
	for r := int32(0); r < m; r++ {
		n := ptr[r+2]
		if f.unitAt[r] >= 0 {
			n++
		} else if n == 1 {
			f.rowQ = append(f.rowQ, r)
		}
		f.rowCount[r] = n
		ptr[r+2] += ptr[r+1]
	}
	f.rowSlots = slices.Grow(f.rowSlots[:0], int(ptr[m+1]))[:ptr[m+1]]
	for slot := int32(0); slot < m; slot++ {
		if f.unit[slot] >= 0 {
			continue
		}
		for _, r := range f.pattern(slot) {
			f.rowSlots[ptr[r+1]] = slot
			ptr[r+1]++
		}
	}

	f.colQ = f.colQ[:0]
	for slot := m - 1; slot >= 0; slot-- {
		if u := f.unit[slot]; u >= 0 {
			// Its one visit: it is unordered, and single while its row is
			// active (only that row's pivot shrinks it). process(slot, u)
			// without the steps that cannot apply: u is its only row, and
			// no other unit column contains u.
			if f.rowActive[u] {
				f.processed[slot] = true
				f.sugg[slot] = u
				f.order = append(f.order, slot)
				f.rowActive[u] = false
				if f.rsPtr[u] < f.rsPtr[u+1] {
					f.shrinkColumns(u)
					f.drainSingletons()
				}
			}
		} else if f.patPtr[slot+1]-f.patPtr[slot] == 1 {
			f.pivotSingleton(slot)
			f.drainSingletons()
		}
	}
	open := f.open[:0]
	listed := false
	for len(f.order) < f.m {
		if n := len(f.rowQ); n > 0 {
			r := f.rowQ[n-1]
			f.rowQ = f.rowQ[:n-1]
			if !f.rowActive[r] || f.rowCount[r] != 1 {
				continue
			}
			// The row's first unordered slot, unit column included.
			var slot int32 = -1
			for _, c := range f.slotsOf(r) {
				if !f.processed[c] {
					slot = c
					break
				}
			}
			if u := f.unitAt[r]; u >= 0 && !f.processed[u] && (slot < 0 || u < slot) {
				slot = u
			}
			if slot < 0 {
				continue
			}
			f.process(slot, r)
			f.drainSingletons()
			continue
		}
		// Bump: take the unprocessed column with the fewest active rows, the
		// lowest slot on ties. The first pick lists the unprocessed slots in
		// ascending order; each pick scans that list and drops from it the
		// slots processed since.
		if !listed {
			for slot := int32(0); slot < m; slot++ {
				if !f.processed[slot] {
					open = append(open, slot)
				}
			}
			listed = true
		}
		var best int32 = -1
		bestCnt := int32(1 << 30)
		kept := open[:0]
		for _, slot := range open {
			if f.processed[slot] {
				continue
			}
			kept = append(kept, slot)
			if f.colCount[slot] < bestCnt {
				best, bestCnt = slot, f.colCount[slot]
			}
		}
		open = kept
		if best < 0 {
			break
		}
		f.process(best, -1) // pivot chosen numerically during factorization
		f.drainSingletons()
	}
	f.open = open[:0] // retain grown capacity
}

// shrinkColumns takes the pivot row prow out of the active-row counts of
// the unordered columns other than unit columns, queueing those it leaves
// single.
func (f *factor) shrinkColumns(prow int32) {
	for _, c := range f.slotsOf(prow) {
		if f.processed[c] {
			continue
		}
		f.colCount[c]--
		if f.colCount[c] == 1 {
			f.colQ = append(f.colQ, c)
		}
	}
}

// pivotSingleton orders slot on its one active row if it is still unordered
// and has exactly one.
func (f *factor) pivotSingleton(slot int32) {
	if f.processed[slot] || f.colCount[slot] != 1 {
		return
	}
	for _, r := range f.pattern(slot) {
		if f.rowActive[r] {
			f.process(slot, r)
			return
		}
	}
}

// drainSingletons orders the queued column singletons, last in first out.
func (f *factor) drainSingletons() {
	for n := len(f.colQ); n > 0; n = len(f.colQ) {
		slot := f.colQ[n-1]
		f.colQ = f.colQ[:n-1]
		f.pivotSingleton(slot)
	}
}

// process orders slot next with planned pivot row prow (-1: chosen
// numerically during factorization). The pivot row leaves the other
// columns' counts, queueing those it leaves single, and the column leaves
// its other active rows' counts, queueing those it leaves single.
func (f *factor) process(slot, prow int32) {
	f.processed[slot] = true
	f.sugg[slot] = prow
	f.order = append(f.order, slot)
	if prow >= 0 {
		f.rowActive[prow] = false
		if u := f.unitAt[prow]; u >= 0 && !f.processed[u] {
			f.colCount[u]-- // to 0: a unit column is never queued
		}
		f.shrinkColumns(prow)
	}
	for _, r := range f.pattern(slot) {
		if r == prow || !f.rowActive[r] {
			continue
		}
		f.rowCount[r]--
		if f.rowCount[r] == 1 {
			f.rowQ = append(f.rowQ, r)
		}
	}
}

// refactorize computes a fresh LU factorization of the basis. f.unit marks
// the slots that hold unit columns; col(slot, scatter) must add any other
// slot's nonzeros into the dense scatter slice (original-row indexed) and
// return the nonzero row list. The eta file is discarded.
//
// A unit column e_r whose planned row r is still unpivoted when its turn
// comes pivots on r with diagonal 1 and empty L and U columns, which is
// what elimination would compute: no earlier pivot touches row r, so its
// reach is empty and the planned pivot passes the threshold test. Any other
// unit column is eliminated like a structural one.
func (f *factor) refactorize(col func(slot int, scatter []float64) []int32) error {
	m := f.m
	// Drop the eta file logically; the entries (and their inner slices) stay
	// allocated for pushEta to recycle.
	f.numEtas = 0
	for i := range f.rowPos {
		f.rowPos[i] = -1
	}

	// Collect symbolic patterns, then plan a fill-reducing order.
	w := f.work
	f.patIdx = f.patIdx[:0]
	for slot := 0; slot < m; slot++ {
		if f.unit[slot] < 0 {
			nz := col(slot, w)
			f.patIdx = append(f.patIdx, nz...)
			for _, r := range nz {
				w[r] = 0
			}
		}
		f.patPtr[slot+1] = int32(len(f.patIdx))
	}
	f.planOrder()
	if len(f.order) != m {
		return errSingular
	}

	f.lIdx, f.lVal = f.lIdx[:0], f.lVal[:0]
	f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]
	f.lCols = f.lCols[:0]
	touched := f.touched[:0]
	for pos := 0; pos < m; pos++ {
		slot := f.order[pos]
		f.slotOfPos[pos] = slot
		f.posOfSlot[slot] = int32(pos)

		u := f.unit[slot]
		if u >= 0 && f.sugg[slot] == u && f.rowPos[u] < 0 {
			// The trivial factor of e_u on its free planned row.
			f.uDiag[pos] = 1
			f.pivRow[pos] = u
			f.rowPos[u] = int32(pos)
			f.lPtr[pos+1] = int32(len(f.lIdx))
			f.uPtr[pos+1] = int32(len(f.uIdx))
			continue
		}
		var nz []int32
		if u >= 0 {
			w[u] = 1
			nz = f.unit[slot : slot+1]
		} else {
			nz = col(int(slot), w)
		}
		touched = append(touched[:0], nz...)
		// Eliminate along the Gilbert-Peierls reach of the pattern.
		for _, t := range f.computeReach(nz) {
			mult := w[f.pivRow[t]]
			if mult == 0 {
				continue
			}
			f.uIdx = append(f.uIdx, t)
			f.uVal = append(f.uVal, mult)
			for s := f.lPtr[t]; s < f.lPtr[t+1]; s++ {
				r := f.lIdx[s]
				if w[r] == 0 {
					touched = append(touched, r)
				}
				w[r] -= f.lVal[s] * mult
			}
			w[f.pivRow[t]] = 0
		}
		f.uPtr[pos+1] = int32(len(f.uIdx))
		// Pivot selection: the planned row if numerically sound, else a
		// threshold rule preferring sparse rows.
		best := int32(-1)
		var maxAbs float64
		for _, r := range touched {
			if f.rowPos[r] < 0 {
				if a := math.Abs(w[r]); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs < 1e-11 {
			for _, r := range touched {
				w[r] = 0
			}
			return errSingular
		}
		if sr := f.sugg[slot]; sr >= 0 && f.rowPos[sr] < 0 && math.Abs(w[sr]) >= 0.01*maxAbs && math.Abs(w[sr]) > 1e-11 {
			best = sr
		} else {
			bestCnt := int32(1 << 30)
			var bestAbs float64
			for _, r := range touched {
				if f.rowPos[r] >= 0 {
					continue
				}
				a := math.Abs(w[r])
				if a < 0.1*maxAbs || a < 1e-11 {
					continue
				}
				if f.rowCount[r] < bestCnt || (f.rowCount[r] == bestCnt && a > bestAbs) {
					best, bestCnt, bestAbs = r, f.rowCount[r], a
				}
			}
			if best < 0 {
				// Fall back to the largest entry.
				for _, r := range touched {
					//lint:floateq maxAbs was copied from one of these entries; exact match re-finds it
					if f.rowPos[r] < 0 && math.Abs(w[r]) == maxAbs {
						best = r
						break
					}
				}
			}
		}
		if best < 0 {
			for _, r := range touched {
				w[r] = 0
			}
			return errSingular
		}
		diag := w[best]
		f.uDiag[pos] = diag
		f.pivRow[pos] = best
		f.rowPos[best] = int32(pos)
		for _, r := range touched {
			v := w[r]
			w[r] = 0
			if v == 0 || r == best || f.rowPos[r] >= 0 {
				continue
			}
			f.lIdx = append(f.lIdx, r)
			f.lVal = append(f.lVal, v/diag)
		}
		f.lPtr[pos+1] = int32(len(f.lIdx))
		if f.lPtr[pos+1] > f.lPtr[pos] {
			f.lCols = append(f.lCols, int32(pos))
		}
	}
	f.touched = touched[:0] // retain grown capacity
	f.transposeU()
	return nil
}

// transposeU rebuilds the row-wise copy of U's off-diagonals.
func (f *factor) transposeU() {
	ptr := f.urPtr
	clear(ptr)
	for _, t := range f.uIdx {
		ptr[t+1]++
	}
	for t := 0; t < f.m; t++ {
		ptr[t+1] += ptr[t]
	}
	nnz := int(ptr[f.m])
	if cap(f.urIdx) < nnz {
		// U's fill grows as the basis drifts from the slack basis; leave
		// headroom so each refactorization does not reallocate.
		f.urIdx = make([]int32, nnz, nnz+nnz/2)
		f.urVal = make([]float64, nnz, nnz+nnz/2)
	}
	f.urIdx, f.urVal = f.urIdx[:nnz], f.urVal[:nnz]
	// Fill with ptr[t] as row t's cursor, then shift the cursors back.
	for k := int32(0); k < int32(f.m); k++ {
		for s := f.uPtr[k]; s < f.uPtr[k+1]; s++ {
			t := f.uIdx[s]
			at := ptr[t]
			f.urIdx[at], f.urVal[at] = k, f.uVal[s]
			ptr[t]++
		}
	}
	for t := f.m; t > 0; t-- {
		ptr[t] = ptr[t-1]
	}
	ptr[0] = 0
}

// nextEpoch starts a fresh set of marks in f.seen.
func (f *factor) nextEpoch() {
	if f.epoch == math.MaxInt32 {
		clear(f.seen)
		f.epoch = 0
	}
	f.epoch++
}

// mark adds i to the pattern pat unless the current epoch already marked it.
func (f *factor) mark(pat []int32, i int32) []int32 {
	if f.seen[i] != f.epoch {
		f.seen[i] = f.epoch
		pat = append(pat, i)
	}
	return pat
}

// computeReach finds every already-factored pivot column whose elimination
// can touch the given column pattern, in elimination order (reverse DFS
// postorder) — the symbolic phase of Gilbert-Peierls.
func (f *factor) computeReach(rows []int32) []int32 {
	f.nextEpoch()
	f.reach = f.reach[:0]
	for _, r := range rows {
		t := f.rowPos[r]
		if t < 0 || f.seen[t] == f.epoch {
			continue
		}
		f.seen[t] = f.epoch
		if f.lPtr[t] == f.lPtr[t+1] {
			f.reach = append(f.reach, t) // no L entries: nothing below t
			continue
		}
		f.dfs = append(f.dfs[:0], t)
		f.dfsIter = append(f.dfsIter[:0], 0)
		for len(f.dfs) > 0 {
			top := len(f.dfs) - 1
			c := f.dfs[top]
			li, _ := f.lcol(c)
			advanced := false
			for it := f.dfsIter[top]; int(it) < len(li); it++ {
				child := f.rowPos[li[it]]
				if child >= 0 && f.seen[child] != f.epoch {
					f.seen[child] = f.epoch
					f.dfsIter[top] = it + 1
					f.dfs = append(f.dfs, child)
					f.dfsIter = append(f.dfsIter, 0)
					advanced = true
					break
				}
			}
			if !advanced {
				f.reach = append(f.reach, c)
				f.dfs = f.dfs[:top]
				f.dfsIter = f.dfsIter[:top]
			}
		}
	}
	// Postorder lists dependents before their prerequisites; reverse it.
	for i, j := 0, len(f.reach)-1; i < j; i, j = i+1, j-1 {
		f.reach[i], f.reach[j] = f.reach[j], f.reach[i]
	}
	return f.reach
}

// ftran solves B x = a in place: on entry buf holds a (original-row indexed,
// dense); on exit buf holds x (basis-slot indexed, dense).
func (f *factor) ftran(buf []float64) {
	m := f.m
	for _, t := range f.lCols {
		if v := buf[f.pivRow[t]]; v != 0 {
			li, lv := f.lcol(t)
			for s, r := range li {
				buf[r] -= lv[s] * v
			}
		}
	}
	y := f.work2
	for t := 0; t < m; t++ {
		y[t] = buf[f.pivRow[t]]
	}
	f.usolve(y, m-1)
	// Scatter from processing order to slot order.
	for pos := 0; pos < m; pos++ {
		buf[f.slotOfPos[pos]] = y[pos]
	}
	f.applyEtas(buf)
}

// usolve runs U's backward solve in place on y (processing order) over the
// positions from, from−1, …, 0, skipping zero multipliers.
func (f *factor) usolve(y []float64, from int) {
	for k := from; k >= 0; k-- {
		if y[k] == 0 {
			continue
		}
		xk := y[k] / f.uDiag[k]
		y[k] = xk
		ui, uv := f.ucol(int32(k))
		for s, t := range ui {
			y[t] -= uv[s] * xk
		}
	}
}

// applyEtas applies the eta file (slot space) in order.
func (f *factor) applyEtas(buf []float64) {
	for e := 0; e < f.numEtas; e++ {
		p := f.etaP[e]
		xp := buf[p] / f.etaPiv[e]
		if xp != 0 {
			ei, ev := f.etaIdx[e], f.etaVal[e]
			for s, i := range ei {
				buf[i] -= ev[s] * xp
			}
		}
		buf[p] = xp
	}
}

// btran solves yᵀ B = cᵀ in place: on entry buf holds c (basis-slot
// indexed); on exit buf holds y (original-row indexed).
func (f *factor) btran(buf []float64) {
	m := f.m
	for e := f.numEtas - 1; e >= 0; e-- {
		p := f.etaP[e]
		cp := buf[p]
		ei, ev := f.etaIdx[e], f.etaVal[e]
		for s, i := range ei {
			cp -= ev[s] * buf[i]
		}
		buf[p] = cp / f.etaPiv[e]
	}
	// Permute slot -> processing order.
	c := f.work3
	for pos := 0; pos < m; pos++ {
		c[pos] = buf[f.slotOfPos[pos]]
	}
	f.utsolve(c, 0)
	for t := 0; t < m; t++ {
		buf[f.pivRow[t]] = c[t]
	}
	f.ltsolve(buf)
}

// utsolve solves Uᵀ z = c forward in place (processing order) over the
// positions from, from+1, …, m−1, scattering each nonzero zₜ into the later
// entries of c along U's row t.
func (f *factor) utsolve(c []float64, from int) {
	for t := from; t < f.m; t++ {
		v := c[t]
		if v == 0 {
			c[t] = 0
			continue
		}
		v /= f.uDiag[t]
		c[t] = v
		for s := f.urPtr[t]; s < f.urPtr[t+1]; s++ {
			c[f.urIdx[s]] -= f.urVal[s] * v
		}
	}
}

// ltsolve solves Lᵀ y = z backward in place, y and z original-row indexed:
// only the entries of the positions with L columns change.
func (f *factor) ltsolve(buf []float64) {
	for k := len(f.lCols) - 1; k >= 0; k-- {
		t := f.lCols[k]
		buf[f.pivRow[t]] = f.ltDot(t, buf)
	}
}

// ltDot returns position t's entry of the Lᵀ solve: its row's value less
// L column t's entries times the rows they sit in.
func (f *factor) ltDot(t int32, buf []float64) float64 {
	v := buf[f.pivRow[t]]
	li, lv := f.lcol(t)
	for s, r := range li {
		v -= lv[s] * buf[r]
	}
	return v
}

// ftranSparse is ftran for a right-hand side that is zero outside the rows
// listed in in (duplicates allowed). It appends to out[:0] the slots where
// the result may be nonzero and returns that pattern, unordered. The L
// solve runs over L's few columns as in ftran; the U solve visits only the
// pattern, in the dense sweep's descending position order by a heap, until
// the pattern passes sparseMax entries, where it finishes with the dense
// sweep. Every entry receives the same updates in the same order as in
// ftran, so the result is bitwise the same.
func (f *factor) ftranSparse(buf []float64, in, out []int32) []int32 {
	f.nextEpoch()
	pat := out[:0]
	for _, r := range in {
		pat = f.mark(pat, r)
	}
	for _, t := range f.lCols {
		if v := buf[f.pivRow[t]]; v != 0 {
			li, lv := f.lcol(t)
			for s, r := range li {
				buf[r] -= lv[s] * v
				pat = f.mark(pat, r)
			}
		}
	}
	// Rows to positions; buf is left zero.
	y := f.sparse
	f.nextEpoch()
	for k, r := range pat {
		t := f.rowPos[r]
		y[t], buf[r] = buf[r], 0
		pat[k] = t
		f.seen[t] = f.epoch
	}
	dense := int32(-1) // where the dense sweep takes over, if it does
	h := f.heap[:0]
	if len(pat) > f.sparseMax {
		dense = int32(f.m - 1)
	} else {
		for _, t := range pat {
			h = heapPush(h, ^t) // complemented: a max-heap of positions
		}
	}
	for len(h) > 0 {
		var k int32
		k, h = heapPop(h)
		k = ^k
		if y[k] == 0 {
			continue
		}
		xk := y[k] / f.uDiag[k]
		y[k] = xk
		ui, uv := f.ucol(int32(k))
		for s, t := range ui {
			y[t] -= uv[s] * xk
			if f.seen[t] != f.epoch {
				f.seen[t] = f.epoch
				pat = append(pat, t)
				h = heapPush(h, ^t)
			}
		}
		if len(pat) > f.sparseMax {
			dense, h = k-1, h[:0]
		}
	}
	f.heap = h
	if dense >= 0 {
		f.usolve(y, int(dense))
		for pos := 0; pos < f.m; pos++ {
			buf[f.slotOfPos[pos]], y[pos] = y[pos], 0
		}
		f.applyEtas(buf)
		return nonzeros(buf[:f.m], pat[:0])
	}
	// Positions to slots, then the eta file.
	f.nextEpoch()
	for k, t := range pat {
		sl := f.slotOfPos[t]
		buf[sl], y[t] = y[t], 0
		pat[k] = sl
		f.seen[sl] = f.epoch
	}
	for e := 0; e < f.numEtas; e++ {
		p := f.etaP[e]
		xp := buf[p] / f.etaPiv[e]
		if xp != 0 {
			ei, ev := f.etaIdx[e], f.etaVal[e]
			for s, i := range ei {
				buf[i] -= ev[s] * xp
				pat = f.mark(pat, i)
			}
		}
		buf[p] = xp
		if math.Float64bits(xp) != 0 {
			pat = f.mark(pat, p)
		}
	}
	return pat
}

// btranSparse is btran for a right-hand side that is zero outside the slots
// listed in in (duplicates allowed). It appends to out[:0] the rows where
// the result may be nonzero and returns that pattern in ascending order.
// The Uᵀ solve visits only the pattern, in the dense sweep's ascending
// position order by a heap over the row-wise copy of U, until the pattern
// passes sparseMax entries, where it finishes with the dense sweep. The
// result is bitwise the same as btran's.
func (f *factor) btranSparse(buf []float64, in, out []int32) []int32 {
	f.nextEpoch()
	pat := out[:0]
	for _, sl := range in {
		pat = f.mark(pat, sl)
	}
	for e := f.numEtas - 1; e >= 0; e-- {
		p := f.etaP[e]
		cp := buf[p]
		ei, ev := f.etaIdx[e], f.etaVal[e]
		for s, i := range ei {
			cp -= ev[s] * buf[i]
		}
		buf[p] = cp / f.etaPiv[e]
		if math.Float64bits(buf[p]) != 0 {
			pat = f.mark(pat, p)
		}
	}
	// Slots to positions; buf is left zero.
	c := f.sparse
	f.nextEpoch()
	for k, sl := range pat {
		t := f.posOfSlot[sl]
		c[t], buf[sl] = buf[sl], 0
		pat[k] = t
		f.seen[t] = f.epoch
	}
	dense := int32(-1)
	h := f.heap[:0]
	if len(pat) > f.sparseMax {
		dense = 0
	} else {
		for _, t := range pat {
			h = heapPush(h, t)
		}
	}
	for len(h) > 0 {
		var t int32
		t, h = heapPop(h)
		v := c[t]
		if v == 0 {
			c[t] = 0
			continue
		}
		v /= f.uDiag[t]
		c[t] = v
		for s := f.urPtr[t]; s < f.urPtr[t+1]; s++ {
			k := f.urIdx[s]
			c[k] -= f.urVal[s] * v
			if f.seen[k] != f.epoch {
				f.seen[k] = f.epoch
				pat = append(pat, k)
				h = heapPush(h, k)
			}
		}
		if len(pat) > f.sparseMax {
			dense, h = t+1, h[:0]
		}
	}
	f.heap = h
	if dense >= 0 {
		f.utsolve(c, int(dense))
		for t := 0; t < f.m; t++ {
			buf[f.pivRow[t]], c[t] = c[t], 0
		}
		f.ltsolve(buf)
		return nonzeros(buf[:f.m], pat[:0])
	}
	// Positions to rows, then Lᵀ.
	f.nextEpoch()
	for k, t := range pat {
		r := f.pivRow[t]
		buf[r], c[t] = c[t], 0
		pat[k] = r
		f.seen[r] = f.epoch
	}
	for k := len(f.lCols) - 1; k >= 0; k-- {
		r := f.pivRow[f.lCols[k]]
		v := f.ltDot(f.lCols[k], buf)
		buf[r] = v
		if math.Float64bits(v) != 0 {
			pat = f.mark(pat, r)
		}
	}
	slices.Sort(pat)
	return pat
}

// nonzeros appends to pat the indices of w's entries that are not +0, in
// ascending order.
func nonzeros(w []float64, pat []int32) []int32 {
	for i, v := range w {
		if math.Float64bits(v) != 0 {
			pat = append(pat, int32(i))
		}
	}
	return pat
}

// heapPush adds v to the binary min-heap h.
func heapPush(h []int32, v int32) []int32 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	return h
}

// heapPop removes the minimum of the binary min-heap h.
func heapPop(h []int32) (int32, []int32) {
	v := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return v, h
}

// pushEta records the basis change where the column with FTRAN image w
// (slot indexed, nonzero only in the ascending slot list pat) replaces the
// basis variable at slot p. The eta keeps pat's order, which btran sums in.
// Returns false if the pivot element is too small for a stable update. Eta
// entries beyond numEtas left over from earlier factorizations are recycled
// in place.
func (f *factor) pushEta(p int, w []float64, pat []int32) bool {
	piv := w[p]
	if math.Abs(piv) < 1e-9 {
		return false
	}
	e := f.numEtas
	var idx []int32
	var val []float64
	if e < len(f.etaIdx) {
		idx, val = f.etaIdx[e][:0], f.etaVal[e][:0]
	}
	for _, i := range pat {
		if v := w[i]; int(i) != p && v != 0 {
			idx = append(idx, i)
			val = append(val, v)
		}
	}
	if e < len(f.etaIdx) {
		f.etaP[e], f.etaPiv[e] = int32(p), piv
		f.etaIdx[e], f.etaVal[e] = idx, val
	} else {
		f.etaP = append(f.etaP, int32(p))
		f.etaPiv = append(f.etaPiv, piv)
		f.etaIdx = append(f.etaIdx, idx)
		f.etaVal = append(f.etaVal, val)
	}
	f.numEtas++
	return true
}
