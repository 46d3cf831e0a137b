package lp

import (
	"errors"
	"math"
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
// Indexing: basis slots (the caller's column positions) are factored in a
// permuted processing order. L and U are stored in processing order; pivRow
// maps processing position → original constraint row, slotOfPos/posOfSlot
// map between slot and processing spaces. FTRAN/BTRAN convert at the
// boundaries so callers only ever see slot space. Eta vectors live in slot
// space.
type factor struct {
	m int

	// L: unit lower triangular (processing order), off-diagonal entries per
	// column in original-row indexing. lCols lists the positions whose
	// column has any, ascending: simplex bases are nearly triangular, so L
	// is nearly the identity and the solves visit only these.
	lIdx  [][]int32
	lVal  [][]float64
	lCols []int32
	// U: upper triangular in processing space, off-diagonals per column.
	uIdx  [][]int32
	uVal  [][]float64
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

	// Eta file (slot space).
	etaP    []int32
	etaPiv  []float64
	etaIdx  [][]int32
	etaVal  [][]float64
	numEtas int

	work  []float64 // dense scratch, len m, kept zeroed between uses
	work2 []float64
	work3 []float64

	// Scratch for the Gilbert-Peierls symbolic reach.
	seen    []int32
	epoch   int32
	reach   []int32
	dfs     []int32
	dfsIter []int32

	// Scratch for singleton peeling.
	pattern  [][]int32 // slot -> row pattern
	rowCols  [][]int32 // row -> slots containing it
	rowCount []int32
	colCount []int32
	order    []int32 // processing order of slots
	sugg     []int32 // suggested pivot row per slot (-1 = none)

	processed []bool  // planOrder: slot already ordered
	rowActive []bool  // planOrder: row still unpivoted
	colQ      []int32 // planOrder: column-singleton queue
	rowQ      []int32 // planOrder: row-singleton queue
	touched   []int32 // refactorize: rows touched by the current column
}

var errSingular = errors.New("lp: basis is numerically singular")

func newFactor(m int) *factor {
	return &factor{
		m:         m,
		lIdx:      make([][]int32, m),
		lVal:      make([][]float64, m),
		uIdx:      make([][]int32, m),
		uVal:      make([][]float64, m),
		uDiag:     make([]float64, m),
		urPtr:     make([]int32, m+1),
		pivRow:    make([]int32, m),
		rowPos:    make([]int32, m),
		slotOfPos: make([]int32, m),
		posOfSlot: make([]int32, m),
		work:      make([]float64, m),
		work2:     make([]float64, m),
		work3:     make([]float64, m),
		seen:      make([]int32, m),
		reach:     make([]int32, 0, m),
		dfs:       make([]int32, 0, 64),
		dfsIter:   make([]int32, 0, 64),
		pattern:   make([][]int32, m),
		rowCols:   make([][]int32, m),
		rowCount:  make([]int32, m),
		colCount:  make([]int32, m),
		order:     make([]int32, 0, m),
		sugg:      make([]int32, m),
		processed: make([]bool, m),
		rowActive: make([]bool, m),
		touched:   make([]int32, 0, 64),
	}
}

// reset discards the eta file so the factorization state from a previous
// solve cannot leak into the next one. The backing arrays are kept — that is
// the point of reusing the factor.
func (f *factor) reset() {
	f.numEtas = 0
}

// planOrder computes a triangularizing processing order of the basis slots
// by column- and row-singleton peeling over the symbolic patterns, leaving
// non-triangular bump columns last. It fills f.order and f.sugg.
func (f *factor) planOrder() {
	m := f.m
	f.order = f.order[:0]
	processed := f.processed
	rowActive := f.rowActive
	for r := 0; r < m; r++ {
		processed[r] = false
		rowActive[r] = true
		f.rowCols[r] = f.rowCols[r][:0]
	}
	for slot := 0; slot < m; slot++ {
		f.sugg[slot] = -1
		f.colCount[slot] = int32(len(f.pattern[slot]))
	}
	for slot := 0; slot < m; slot++ {
		for _, r := range f.pattern[slot] {
			f.rowCols[r] = append(f.rowCols[r], int32(slot))
		}
	}
	for r := 0; r < m; r++ {
		f.rowCount[r] = int32(len(f.rowCols[r]))
	}

	// Queue of column singletons.
	colQ := f.colQ[:0]
	for slot := 0; slot < m; slot++ {
		if f.colCount[slot] == 1 {
			colQ = append(colQ, int32(slot))
		}
	}
	rowQ := f.rowQ[:0]
	for r := 0; r < m; r++ {
		if f.rowCount[r] == 1 {
			rowQ = append(rowQ, int32(r))
		}
	}

	process := func(slot, prow int32) {
		processed[slot] = true
		f.sugg[slot] = prow
		f.order = append(f.order, slot)
		// Deactivate the pivot row: shrink other columns.
		if prow >= 0 {
			rowActive[prow] = false
			for _, c := range f.rowCols[prow] {
				if processed[c] {
					continue
				}
				f.colCount[c]--
				if f.colCount[c] == 1 {
					colQ = append(colQ, c)
				}
			}
		}
		// The column leaves: shrink its other active rows.
		for _, r := range f.pattern[slot] {
			if r == prow || !rowActive[r] {
				continue
			}
			f.rowCount[r]--
			if f.rowCount[r] == 1 {
				rowQ = append(rowQ, r)
			}
		}
	}

	remaining := m
	for remaining > 0 {
		if len(colQ) > 0 {
			slot := colQ[len(colQ)-1]
			colQ = colQ[:len(colQ)-1]
			if processed[slot] || f.colCount[slot] != 1 {
				continue
			}
			// Find its single active row.
			var prow int32 = -1
			for _, r := range f.pattern[slot] {
				if rowActive[r] {
					prow = r
					break
				}
			}
			if prow < 0 {
				continue
			}
			process(slot, prow)
			remaining--
			continue
		}
		if len(rowQ) > 0 {
			r := rowQ[len(rowQ)-1]
			rowQ = rowQ[:len(rowQ)-1]
			if !rowActive[r] || f.rowCount[r] != 1 {
				continue
			}
			var slot int32 = -1
			for _, c := range f.rowCols[r] {
				if !processed[c] {
					slot = c
					break
				}
			}
			if slot < 0 {
				continue
			}
			process(slot, r)
			remaining--
			continue
		}
		// Bump: take the unprocessed column with the fewest active rows.
		var best int32 = -1
		bestCnt := int32(1 << 30)
		for slot := 0; slot < m; slot++ {
			if !processed[slot] && f.colCount[slot] < bestCnt {
				best, bestCnt = int32(slot), f.colCount[slot]
			}
		}
		if best < 0 {
			break
		}
		process(best, -1) // pivot chosen numerically during factorization
		remaining--
	}
	f.colQ, f.rowQ = colQ[:0], rowQ[:0] // retain grown capacity
}

// refactorize computes a fresh LU factorization of the basis whose columns
// are provided by col(slot, scatter), which must add column slot's nonzeros
// into the dense scatter slice (original-row indexed) and return the nonzero
// row list. The eta file is discarded.
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
	for slot := 0; slot < m; slot++ {
		nz := col(slot, w)
		f.pattern[slot] = append(f.pattern[slot][:0], nz...)
		for _, r := range nz {
			w[r] = 0
		}
	}
	f.planOrder()
	if len(f.order) != m {
		return errSingular
	}

	touched := f.touched[:0]
	for pos := 0; pos < m; pos++ {
		slot := f.order[pos]
		f.slotOfPos[pos] = slot
		f.posOfSlot[slot] = int32(pos)

		touched = touched[:0]
		nz := col(int(slot), w)
		touched = append(touched, nz...)
		// Eliminate along the Gilbert-Peierls reach of the pattern.
		f.uIdx[pos] = f.uIdx[pos][:0]
		f.uVal[pos] = f.uVal[pos][:0]
		for _, t := range f.computeReach(nz) {
			mult := w[f.pivRow[t]]
			if mult == 0 {
				continue
			}
			f.uIdx[pos] = append(f.uIdx[pos], t)
			f.uVal[pos] = append(f.uVal[pos], mult)
			li, lv := f.lIdx[t], f.lVal[t]
			for s, r := range li {
				if w[r] == 0 {
					touched = append(touched, r)
				}
				w[r] -= lv[s] * mult
			}
			w[f.pivRow[t]] = 0
		}
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
		f.lIdx[pos] = f.lIdx[pos][:0]
		f.lVal[pos] = f.lVal[pos][:0]
		for _, r := range touched {
			v := w[r]
			w[r] = 0
			if v == 0 || r == best || f.rowPos[r] >= 0 {
				continue
			}
			f.lIdx[pos] = append(f.lIdx[pos], r)
			f.lVal[pos] = append(f.lVal[pos], v/diag)
		}
	}
	f.touched = touched[:0] // retain grown capacity
	f.lCols = f.lCols[:0]
	for t := 0; t < m; t++ {
		if len(f.lIdx[t]) > 0 {
			f.lCols = append(f.lCols, int32(t))
		}
	}
	f.transposeU()
	return nil
}

// transposeU rebuilds the row-wise copy of U's off-diagonals.
func (f *factor) transposeU() {
	ptr := f.urPtr
	for i := range ptr {
		ptr[i] = 0
	}
	for k := 0; k < f.m; k++ {
		for _, t := range f.uIdx[k] {
			ptr[t+1]++
		}
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
	for k := 0; k < f.m; k++ {
		uv := f.uVal[k]
		for s, t := range f.uIdx[k] {
			at := ptr[t]
			f.urIdx[at], f.urVal[at] = int32(k), uv[s]
			ptr[t]++
		}
	}
	for t := f.m; t > 0; t-- {
		ptr[t] = ptr[t-1]
	}
	ptr[0] = 0
}

// computeReach finds every already-factored pivot column whose elimination
// can touch the given column pattern, in elimination order (reverse DFS
// postorder) — the symbolic phase of Gilbert-Peierls.
func (f *factor) computeReach(rows []int32) []int32 {
	f.epoch++
	f.reach = f.reach[:0]
	for _, r := range rows {
		t := f.rowPos[r]
		if t < 0 || f.seen[t] == f.epoch {
			continue
		}
		f.dfs = append(f.dfs[:0], t)
		f.dfsIter = append(f.dfsIter[:0], 0)
		f.seen[t] = f.epoch
		for len(f.dfs) > 0 {
			top := len(f.dfs) - 1
			c := f.dfs[top]
			li := f.lIdx[c]
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
			li, lv := f.lIdx[t], f.lVal[t]
			for s, r := range li {
				buf[r] -= lv[s] * v
			}
		}
	}
	y := f.work2
	for t := 0; t < m; t++ {
		y[t] = buf[f.pivRow[t]]
	}
	for k := m - 1; k >= 0; k-- {
		if y[k] == 0 {
			continue
		}
		xk := y[k] / f.uDiag[k]
		y[k] = xk
		ui, uv := f.uIdx[k], f.uVal[k]
		for s, t := range ui {
			y[t] -= uv[s] * xk
		}
	}
	// Scatter from processing order to slot order.
	for pos := 0; pos < m; pos++ {
		buf[f.slotOfPos[pos]] = y[pos]
	}
	// Apply etas (slot space) in order.
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
	// Solve Uᵀ z = c forward (z processing indexed), scattering each
	// nonzero zₜ into the later entries of c along U's row t.
	z := f.work2
	for t := 0; t < m; t++ {
		v := c[t]
		if v == 0 {
			z[t] = 0
			continue
		}
		v /= f.uDiag[t]
		z[t] = v
		for s := f.urPtr[t]; s < f.urPtr[t+1]; s++ {
			c[f.urIdx[s]] -= f.urVal[s] * v
		}
	}
	// Solve Lᵀ y = z backward, y original-row indexed, into buf: scatter z,
	// then correct the entries of the positions with L columns.
	for t := 0; t < m; t++ {
		buf[f.pivRow[t]] = z[t]
	}
	for k := len(f.lCols) - 1; k >= 0; k-- {
		t := f.lCols[k]
		v := buf[f.pivRow[t]]
		li, lv := f.lIdx[t], f.lVal[t]
		for s, r := range li {
			v -= lv[s] * buf[r]
		}
		buf[f.pivRow[t]] = v
	}
}

// pushEta records the basis change where the column with FTRAN image w
// (slot indexed, dense) replaces the basis variable at slot p. Returns false
// if the pivot element is too small for a stable update. Eta entries beyond
// numEtas left over from earlier factorizations are recycled in place.
func (f *factor) pushEta(p int, w []float64) bool {
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
	for i, v := range w[:f.m] {
		if i != p && v != 0 {
			idx = append(idx, int32(i))
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
