package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"compact/internal/invariant"
)

// The LP core: a sparse revised simplex with a product-form-of-the-inverse
// (PFI) eta file.
//
// The dense tableau simplex (simplex.go) spends O(m·n) per pivot updating
// the whole tableau, which dominates solve time on this repository's
// models even though they are extremely sparse — the vertex-cover and
// Eq.4 labeling matrices carry ~2 nonzeros per row. The revised simplex
// keeps the constraint matrix in sparse column form and represents B⁻¹ as
// a product of eta matrices, so one pivot costs one BTRAN (pricing), one
// FTRAN (entering column) and one eta append: O(nnz + eta file) instead of
// O(m·n). The eta file is rebuilt from scratch (reinversion with
// threshold pivoting) every refactorEvery pivots or when it grows past
// its nonzero budget, and the basic solution is recomputed from the raw
// right-hand side at each refactorization, which bounds numerical drift
// the way the dense tableau's full eliminations did. Branch & bound
// children skip the two-phase start altogether: a dual simplex picks up
// from the parent's optimal basis (solveWarm).
//
// All contracts of the dense implementation are preserved: the same
// lowering (lower()), tolerances, per-iteration deadline/context checks,
// iteration limit, Bland's-rule anti-cycling fallback after a stall
// window, bounded-variable bound flips, and the BoundedValues exit
// invariant. solveLP falls back to solveLPDense if the eta machinery ever
// reports a singular basis — correctness never depends on the fast path.

const (
	// refactorEvery bounds the eta-file length (and so FTRAN/BTRAN cost
	// and drift) by periodic reinversion.
	refactorEvery = 96
	// etaDropTol discards negligible eta entries; anything this small is
	// numerical noise relative to feasTol and only bloats the file.
	etaDropTol = 1e-12
	// pivotRel is reinversion's threshold-pivoting tolerance: any entry
	// within this factor of the column's largest remaining one may be
	// the pivot.
	pivotRel = 0.1
)

var errSingularBasis = errors.New("ilp: singular basis during refactorization")

// spCol is one sparse constraint-matrix column.
type spCol struct {
	ind []int32
	val []float64
}

// eta is one elementary column transformation: B⁻¹ gains a factor E that
// is the identity except in column r, where E[r][r] = pivInv and
// E[i][r] = val[t] for i = ind[t].
type eta struct {
	r      int32
	pivInv float64
	ind    []int32
	val    []float64
}

// lpShape is the lowered constraint system of one model: sparse columns,
// right-hand side and phase-2 costs. It is built once per solve and shared
// read-only by every node LP of the branch & bound; bounds and basis state
// live in each rsLP.
type lpShape struct {
	m, n     int
	nStruct  int
	firstArt int
	cols     []spCol
	b        []float64 // RHS after row negation
	cost     []float64
	rowLen   []int32 // structural nonzeros per row, for pivot choice
}

// rsLP is a lowered sparse LP instance plus revised-simplex working state.
// The lowering mirrors lower() exactly: structural columns, one slack per
// inequality (coefficient +1 before row negation), one artificial per row
// (+1 after negation), rows negated so the initial artificial basis is
// feasible at the structural lower bounds.
type rsLP struct {
	*lpShape
	lo, up    []float64
	status    []varStatus
	basis     []int
	xB        []float64
	etas      []eta
	etaNNZ    int
	baseNNZ   int // eta nonzeros of the last fresh factorization
	pivots    int // pivots since last refactorization
	allPivots int // basis changes over the whole solve
	refactors int // reinversions over the whole solve
	activeN   int // columns scanned by pricing (n, then firstArt in phase 2)
	iters     int
	maxIters  int
	deadline  time.Time
	ctx       context.Context
	w, y      []float64 // dense scratch: FTRAN column, BTRAN multipliers
	d, alpha  []float64 // dual simplex: reduced costs, pivot row
	rf        refactorScratch
}

// refactorScratch is reinversion's working memory, kept across calls.
type refactorScratch struct {
	order  []int
	basis  []int
	rowEta []int32 // eta pivoted at each row so far; -1 none (unused, or a +1 singleton)
	used   []bool  // row already pivoted
	w      []float64
	mark   []bool
	nz     []int32
	heap   []int32
}

// newRsLP returns a working state over shape with every array sized and
// nothing loaded: the caller sets bounds and a basis before solving.
func newRsLP(shape *lpShape) *rsLP {
	m, n := shape.m, shape.n
	return &rsLP{
		lpShape: shape,
		lo:      make([]float64, n), up: make([]float64, n),
		status: make([]varStatus, n),
		basis:  make([]int, m),
		xB:     make([]float64, m),
		w:      make([]float64, m), y: make([]float64, m),
		activeN: n,
		// The dense code's budget: enough for any solve that is not
		// cycling, whatever the model.
		maxIters: 200*(m+1) + 20*n + 2000,
	}
}

// lowerSparse builds the sparse standard form. It must stay semantically
// identical to lower(): same slack/artificial layout, same row negation,
// same bound checks, same iteration budget.
func lowerSparse(mod *Model, lbs, ubs []float64) (*rsLP, error) {
	nStruct := mod.NumVars()
	m := mod.NumConstrs()
	nSlack := 0
	for _, c := range mod.constrs {
		if c.Sense != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack + m
	p := newRsLP(&lpShape{
		m: m, n: n, nStruct: nStruct, firstArt: nStruct + nSlack,
		cols:   make([]spCol, n),
		b:      make([]float64, m),
		cost:   make([]float64, n),
		rowLen: make([]int32, m),
	})
	for j := 0; j < nStruct; j++ {
		p.lo[j], p.up[j] = lbs[j], ubs[j]
		if math.IsInf(p.lo[j], -1) {
			return nil, errInfLowerBound(mod, j)
		}
		if p.lo[j] > p.up[j]+feasTol {
			return nil, errBoundsInfeasible
		}
		if p.up[j] < p.lo[j] {
			p.up[j] = p.lo[j]
		}
		p.cost[j] = mod.obj[j]
	}
	for j := nStruct; j < n; j++ {
		p.lo[j], p.up[j] = 0, math.Inf(1)
	}
	slack := nStruct
	for i, c := range mod.constrs {
		rhs := c.RHS
		sign := 1.0
		if c.Sense == GE {
			sign = -1.0
			rhs = -rhs
		}
		// Residual at the initial point decides the row's final sign (see
		// lower()): terms are merged by AddConstr, so no duplicate vars.
		res := rhs
		for _, t := range c.Terms {
			res -= sign * t.Coeff * p.lo[t.Var]
		}
		rowSign := 1.0
		if res < 0 {
			rowSign, res = -1, -res
			rhs = -rhs
		}
		for _, t := range c.Terms {
			v := rowSign * sign * t.Coeff
			if zero(v) {
				continue
			}
			p.rowLen[i]++
			col := &p.cols[t.Var]
			col.ind = append(col.ind, int32(i))
			col.val = append(col.val, v)
		}
		if c.Sense != EQ {
			p.cols[slack] = spCol{ind: []int32{int32(i)}, val: []float64{rowSign}}
			slack++
		}
		art := p.firstArt + i
		p.cols[art] = spCol{ind: []int32{int32(i)}, val: []float64{1}}
		p.b[i] = rhs
		p.basis[i] = art
		p.xB[i] = res
		p.status[art] = isBasic
	}
	return p, nil
}

// errInfLowerBound matches the dense lowering's error text.
func errInfLowerBound(mod *Model, j int) error {
	return fmt.Errorf("ilp: variable %q has infinite lower bound (unsupported)", mod.names[j])
}

// ftranEtas applies the eta file to x in order: x ← E_k … E_1 x, i.e.
// x ← B⁻¹ x when x held the original column.
func ftranEtas(etas []eta, x []float64) {
	for k := range etas {
		e := &etas[k]
		xr := x[e.r]
		if zero(xr) {
			continue
		}
		x[e.r] = e.pivInv * xr
		for t, i := range e.ind {
			x[i] += e.val[t] * xr
		}
	}
}

func (p *rsLP) ftran(x []float64) { ftranEtas(p.etas, x) }

// btran applies the transposed eta file in reverse: x ← E_1ᵀ … E_kᵀ x,
// i.e. x ← B⁻ᵀ x, the simplex multipliers when x held the basic costs.
func (p *rsLP) btran(x []float64) {
	for k := len(p.etas) - 1; k >= 0; k-- {
		e := &p.etas[k]
		s := e.pivInv * x[e.r]
		for t, i := range e.ind {
			s += e.val[t] * x[i]
		}
		x[e.r] = s
	}
}

// makeEta builds the eta column for pivot row r from the FTRAN'd entering
// column w. Entries below etaDropTol are noise and dropped.
func makeEta(w []float64, r int) eta {
	e := eta{r: int32(r), pivInv: 1 / w[r]}
	nnz := 0
	for i := range w {
		if i != r && !zero(w[i]) {
			nnz++
		}
	}
	if nnz == 0 {
		return e
	}
	e.ind = make([]int32, 0, nnz)
	e.val = make([]float64, 0, nnz)
	for i := range w {
		if i == r || zero(w[i]) {
			continue
		}
		v := -w[i] * e.pivInv
		if math.Abs(v) < etaDropTol {
			continue
		}
		e.ind = append(e.ind, int32(i))
		e.val = append(e.val, v)
	}
	return e
}

func (p *rsLP) appendEta(w []float64, r int) {
	e := makeEta(w, r)
	p.etas = append(p.etas, e)
	p.etaNNZ += len(e.ind) + 1
	p.pivots++
	p.allPivots++
}

// loadCol scatters column j into the dense scratch w (cleared first).
func (p *rsLP) loadCol(j int, w []float64) {
	for i := range w {
		w[i] = 0
	}
	col := &p.cols[j]
	for t, i := range col.ind {
		w[i] = col.val[t]
	}
}

// nonbasicValue returns the bound a nonbasic column currently sits at.
func (p *rsLP) nonbasicValue(j int) float64 {
	if p.status[j] == atUpper {
		return p.up[j]
	}
	return p.lo[j]
}

// recomputeXB refreshes the basic solution from the raw right-hand side:
// x_B = B⁻¹ (b − N x_N). Called at every refactorization, it resets the
// additive drift that incremental xB updates accumulate.
func (p *rsLP) recomputeXB() {
	x := p.w
	copy(x, p.b)
	for j := 0; j < p.n; j++ {
		if p.status[j] == isBasic {
			continue
		}
		v := p.nonbasicValue(j)
		if zero(v) {
			continue
		}
		col := &p.cols[j]
		for t, i := range col.ind {
			x[i] -= col.val[t] * v
		}
	}
	p.ftran(x)
	copy(p.xB, x)
}

// refactorize rebuilds the eta file from the current basis by reinversion:
// basis columns are processed singletons-first then by increasing nonzero
// count, each FTRAN'd against the partial file. The pivot is a threshold
// choice: among the remaining entries within pivotRel of the largest, the
// one whose row is shortest in the constraint matrix. Pivoting on a long
// row copies its pattern into every later column that meets it; keeping
// the labeling models' four dense rows for last cuts the factor's
// nonzeros about 2.5-fold. The basis is reordered so basis[r] is the
// column pivoted at row r — PFI needs no separate permutation. On success
// xB is recomputed from b; on a singular basis the state is left
// untouched and errSingularBasis is returned (solveLP then falls back to
// the dense oracle).
//
// The work is kept proportional to the factor's nonzeros. A singleton
// column whose row no earlier pivot used passes through the partial file
// unchanged, so it pivots in place: a +1 entry (every slack and
// artificial of a row that was not negated) needs no eta at all, any
// other value a diagonal one. Other columns are FTRAN'd with a list of
// their nonzero rows, the pivot is chosen from that list, and only the
// listed rows are cleared afterwards.
func (p *rsLP) refactorize() error {
	m := p.m
	rf := &p.rf
	if len(rf.w) != m {
		rf.order = make([]int, m)
		rf.basis = make([]int, m)
		rf.rowEta = make([]int32, m)
		rf.used = make([]bool, m)
		rf.w = make([]float64, m)
		rf.mark = make([]bool, m)
	}
	order, w, mark := rf.order, rf.w, rf.mark
	for i := range order {
		order[i] = i
		rf.rowEta[i] = -1
		rf.used[i] = false
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := len(p.cols[p.basis[order[a]]].ind), len(p.cols[p.basis[order[b]]].ind)
		if ca != cb {
			return ca < cb
		}
		return p.basis[order[a]] < p.basis[order[b]]
	})
	newEtas := make([]eta, 0, m)
	newNNZ := 0
	newBasis := rf.basis
	for _, bi := range order {
		j := p.basis[bi]
		col := &p.cols[j]
		if len(col.ind) == 1 && !rf.used[col.ind[0]] && math.Abs(col.val[0]) > pivotTol {
			r := int(col.ind[0])
			if v := col.val[0]; !zero(v - 1) {
				rf.rowEta[r] = int32(len(newEtas))
				newEtas = append(newEtas, eta{r: int32(r), pivInv: 1 / v})
				newNNZ++
			}
			rf.used[r] = true
			newBasis[r] = j
			continue
		}
		nz := rf.nz[:0]
		for t, i := range col.ind {
			w[i] = col.val[t]
			mark[i] = true
			nz = append(nz, i)
		}
		nz = rf.ftran(newEtas, nz)
		big := pivotTol
		for _, i := range nz {
			if a := math.Abs(w[i]); !rf.used[i] && a > big {
				big = a
			}
		}
		r, rc := -1, int32(0)
		for _, i := range nz {
			if rf.used[i] || math.Abs(w[i]) < pivotRel*big {
				continue
			}
			if c := p.rowLen[i]; r < 0 || c < rc {
				r, rc = int(i), c
			}
		}
		if r < 0 {
			clearSparse(w, mark, nz)
			return errSingularBasis
		}
		e := makeEtaSparse(w, nz, r)
		clearSparse(w, mark, nz)
		rf.rowEta[r] = int32(len(newEtas))
		newEtas = append(newEtas, e)
		newNNZ += len(e.ind) + 1
		rf.used[r] = true
		newBasis[r] = j
	}
	p.etas, p.etaNNZ, p.baseNNZ, p.pivots = newEtas, newNNZ, newNNZ, 0
	p.basis, rf.basis = newBasis, p.basis
	p.refactors++
	p.recomputeXB()
	return nil
}

// ftran applies the partial factor etas to the sparse column held in w,
// whose nonzero rows are listed in nz (mark set for exactly those rows);
// rows it fills in are appended to the list, which is returned. Only the
// etas pivoted at a nonzero row can act, so instead of scanning the whole
// file it visits those in file order through a min-heap of eta indices:
// the etas of the column's rows to start with, plus that of each row an
// applied eta fills in — if that eta comes later in the file; an earlier
// one already ran while the row was still zero. The cost is proportional
// to the nonzeros touched, not to the length of the file.
func (rf *refactorScratch) ftran(etas []eta, nz []int32) []int32 {
	w, mark := rf.w, rf.mark
	h := rf.heap[:0]
	for _, i := range nz {
		if k := rf.rowEta[i]; k >= 0 {
			h = heapPush(h, k)
		}
	}
	for len(h) > 0 {
		var k int32
		k, h = heapPop(h)
		e := &etas[k]
		xr := w[e.r]
		if zero(xr) {
			continue
		}
		w[e.r] = e.pivInv * xr
		for t, i := range e.ind {
			if !mark[i] {
				mark[i] = true
				nz = append(nz, i)
				if k2 := rf.rowEta[i]; k2 > k {
					h = heapPush(h, k2)
				}
			}
			w[i] += e.val[t] * xr
		}
	}
	rf.heap, rf.nz = h, nz
	return nz
}

// heapPush and heapPop keep h a binary min-heap of eta indices.
func heapPush(h []int32, k int32) []int32 {
	h = append(h, k)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
	return h
}

func heapPop(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for p := 0; ; {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	return top, h
}

// makeEtaSparse is makeEta over the rows listed in nz.
func makeEtaSparse(w []float64, nz []int32, r int) eta {
	e := eta{r: int32(r), pivInv: 1 / w[r]}
	cnt := 0
	for _, i := range nz {
		if int(i) != r && math.Abs(w[i]*e.pivInv) >= etaDropTol {
			cnt++
		}
	}
	if cnt == 0 {
		return e
	}
	e.ind = make([]int32, 0, cnt)
	e.val = make([]float64, 0, cnt)
	for _, i := range nz {
		if int(i) == r {
			continue
		}
		v := -w[i] * e.pivInv
		if math.Abs(v) < etaDropTol {
			continue
		}
		e.ind = append(e.ind, i)
		e.val = append(e.val, v)
	}
	return e
}

// clearSparse zeroes the listed rows of w and their marks.
func clearSparse(w []float64, mark []bool, nz []int32) {
	for _, i := range nz {
		w[i] = 0
		mark[i] = false
	}
}

// etaBudget is the nonzero cap that forces early reinversion when pivots
// produce unusually dense eta columns. It is measured from the fresh
// factorization: a basis whose factor alone is large (dense rows make
// every structural eta long) must not reinvert on its first pivot. The
// allowance on top, 32 nonzeros per row, is a third of a dense column per
// pivot over refactorEvery pivots; on the labeling models a tighter 16
// per row reinverted a few extra times without saving any time.
func (p *rsLP) etaBudget() int { return p.baseNNZ + 32*p.m + 1024 }

// chooseEntering prices every active nonbasic column against the simplex
// multipliers y (Dantzig rule; first-improving-index under Bland) and
// returns the entering column and its direction, or (-1, 0) at optimality.
func (p *rsLP) chooseEntering(c, y []float64, bland bool) (int, float64) {
	bestJ, bestScore, bestDir := -1, costTol, 0.0
	for j := 0; j < p.activeN; j++ {
		st := p.status[j]
		if st == isBasic || zero(p.up[j]-p.lo[j]) {
			continue
		}
		d := c[j]
		col := &p.cols[j]
		for t, i := range col.ind {
			d -= y[i] * col.val[t]
		}
		var score, dir float64
		if st == atLower {
			score, dir = -d, 1
		} else {
			score, dir = d, -1
		}
		if score > bestScore {
			if bland {
				return j, dir
			}
			bestJ, bestScore, bestDir = j, score, dir
		}
	}
	return bestJ, bestDir
}

// ratioTest mirrors the dense implementation over the FTRAN'd entering
// column w, including the smallest-basic-index tie-break.
func (p *rsLP) ratioTest(q int, dir float64, w []float64) (flip bool, r int, hitUpper bool, t float64, err error) {
	t = math.Inf(1)
	if !math.IsInf(p.up[q], 1) {
		t = p.up[q] - p.lo[q]
	}
	flip = true
	r = -1
	for i := 0; i < p.m; i++ {
		a := w[i]
		if math.Abs(a) < pivotTol {
			continue
		}
		rate := -a * dir
		b := p.basis[i]
		var ti float64
		var toUpper bool
		if rate < 0 {
			ti = (p.xB[i] - p.lo[b]) / -rate
		} else {
			if math.IsInf(p.up[b], 1) {
				continue
			}
			ti = (p.up[b] - p.xB[i]) / rate
			toUpper = true
		}
		if ti < 0 {
			ti = 0
		}
		if ti < t-1e-12 || (ti < t+1e-12 && r >= 0 && p.basis[i] < p.basis[r]) {
			t, flip, r, hitUpper = ti, false, i, toUpper
		}
	}
	if math.IsInf(t, 1) {
		return false, -1, false, 0, errUnbounded
	}
	return flip, r, hitUpper, t, nil
}

// optimize runs the revised bounded-variable primal simplex for cost
// vector c until optimality, with the dense implementation's stall-window
// Bland's-rule fallback as the anti-cycling guard: after blandThreshold
// consecutive degenerate pivots the entering rule switches to
// first-improving-index, which cannot cycle.
func (p *rsLP) optimize(c []float64) error {
	noImprove := 0
	blandThreshold := 4 * (p.m + 64)
	for {
		p.iters++
		if p.iters > p.maxIters {
			return errIterLimit
		}
		// Same per-iteration budget discipline as the dense code: one
		// revised pivot is O(nnz + eta file), so a strided check could
		// still overshoot on big models while time.Now() costs nanoseconds.
		if !p.deadline.IsZero() && time.Now().After(p.deadline) {
			return errTimeLimit
		}
		if p.ctx != nil {
			select {
			case <-p.ctx.Done():
				return errTimeLimit
			default:
			}
		}
		// Pricing: y = B⁻ᵀ c_B, then reduced costs column by column.
		y := p.y
		for i := range y {
			y[i] = 0
		}
		for i, b := range p.basis {
			if cb := c[b]; !zero(cb) {
				y[i] = cb
			}
		}
		p.btran(y)
		bland := noImprove > blandThreshold
		q, dir := p.chooseEntering(c, y, bland)
		if q < 0 {
			return nil // optimal
		}
		w := p.w
		p.loadCol(q, w)
		p.ftran(w)
		flip, r, hitUpper, t, err := p.ratioTest(q, dir, w)
		if err != nil {
			return err
		}
		if t > 1e-12 {
			noImprove = 0
		} else {
			noImprove++
		}
		if flip {
			for i := range p.xB {
				if !zero(w[i]) {
					p.xB[i] -= w[i] * dir * t
				}
			}
			if p.status[q] == atLower {
				p.status[q] = atUpper
			} else {
				p.status[q] = atLower
			}
			continue
		}
		start := p.lo[q]
		if p.status[q] == atUpper {
			start = p.up[q]
		}
		for i := range p.xB {
			if i != r && !zero(w[i]) {
				p.xB[i] -= w[i] * dir * t
			}
		}
		leaving := p.basis[r]
		if hitUpper {
			p.status[leaving] = atUpper
		} else {
			p.status[leaving] = atLower
		}
		p.basis[r] = q
		p.status[q] = isBasic
		p.xB[r] = start + dir*t
		p.appendEta(w, r)
		if p.pivots >= refactorEvery || p.etaNNZ > p.etaBudget() {
			if err := p.refactorize(); err != nil {
				return err
			}
		}
	}
}

// value returns the current value of column j (dense value() semantics).
func (p *rsLP) value(j int) float64 {
	switch p.status[j] {
	case atLower:
		return p.lo[j]
	case atUpper:
		return p.up[j]
	default:
		for i, b := range p.basis {
			if b == j {
				return p.xB[i]
			}
		}
	}
	//lint:ignore panicfree defensive invariant: status/basis desync would be a simplex bug, not bad input
	panic("ilp: basic variable not in basis")
}

// solution extracts structural variable values.
func (p *rsLP) solution() []float64 {
	x := make([]float64, p.nStruct)
	for j := range x {
		switch p.status[j] {
		case atLower:
			x[j] = p.lo[j]
		case atUpper:
			x[j] = p.up[j]
		}
	}
	for i, b := range p.basis {
		if b < p.nStruct {
			x[b] = p.xB[i]
		}
	}
	return x
}

// solveLP solves the LP relaxation of mod with the given bound overrides
// using the sparse revised simplex, falling back to the dense tableau
// implementation on a singular-basis report or an exit-invariant failure
// (both indicate numerical trouble in the eta file, not a property of the
// model). A non-zero deadline or a cancelled context aborts the solve with
// errTimeLimit.
func solveLP(ctx context.Context, mod *Model, lbs, ubs []float64, deadline time.Time) (lpResult, error) {
	p, err := lowerSparse(mod, lbs, ubs)
	if err != nil {
		return loweringResult(err)
	}
	return p.solveOrDense(ctx, mod, lbs, ubs, deadline)
}

// loweringResult turns a lowering error into solveLP's answer: an empty
// box is an infeasible LP, anything else an error.
func loweringResult(err error) (lpResult, error) {
	if errors.Is(err, errBoundsInfeasible) {
		return lpResult{status: StatusInfeasible}, nil
	}
	return lpResult{}, err
}

// solveOrDense is solveLP on an instance lowerSparse already built.
func (p *rsLP) solveOrDense(ctx context.Context, mod *Model, lbs, ubs []float64, deadline time.Time) (lpResult, error) {
	res, err := p.solveCold(ctx, mod, lbs, ubs, deadline)
	if fastPathFailed(err) {
		dense, err := solveLPDense(ctx, mod, lbs, ubs, deadline)
		dense.iters += res.iters
		dense.fallback = true
		return dense, err
	}
	return res, err
}

// fastPathFailed reports the errors that say the eta machinery, not the
// model, is in trouble; a slower engine may still answer.
func fastPathFailed(err error) bool {
	var ivErr *invariant.Error
	return err != nil && (errors.Is(err, errSingularBasis) || errors.As(err, &ivErr))
}

func solveLPRevised(ctx context.Context, mod *Model, lbs, ubs []float64, deadline time.Time) (lpResult, error) {
	p, err := lowerSparse(mod, lbs, ubs)
	if err != nil {
		return loweringResult(err)
	}
	return p.solveCold(ctx, mod, lbs, ubs, deadline)
}

// solveCold runs the two-phase revised primal simplex from the all-
// artificial basis lowerSparse set up. An optimal result carries a
// snapshot of its basis for warm-starting descendants.
func (p *rsLP) solveCold(ctx context.Context, mod *Model, lbs, ubs []float64, deadline time.Time) (lpResult, error) {
	p.deadline = deadline
	p.ctx = ctx
	// Phase 1: minimize the sum of artificial variables.
	phase1 := make([]float64, p.n)
	for j := p.firstArt; j < p.n; j++ {
		phase1[j] = 1
	}
	if err := p.optimize(phase1); err != nil {
		if errors.Is(err, errUnbounded) {
			// Phase 1 is bounded below by 0; treat as numerical failure.
			return lpResult{}, errIterLimit
		}
		return lpResult{iters: p.iters}, err
	}
	infeas := 0.0
	for j := p.firstArt; j < p.n; j++ {
		infeas += p.value(j)
	}
	if infeas > feasTol {
		return lpResult{status: StatusInfeasible, iters: p.iters}, nil
	}
	// Pin artificials at zero for phase 2 and drop them from pricing; a
	// still-basic artificial stays parked at zero.
	for j := p.firstArt; j < p.n; j++ {
		p.up[j] = 0
	}
	p.activeN = p.firstArt
	for i, b := range p.basis {
		if b >= p.firstArt && p.xB[i] < feasTol {
			p.xB[i] = 0 // clamp tiny residue
		}
	}
	if err := p.optimize(p.cost); err != nil {
		if errors.Is(err, errUnbounded) {
			return lpResult{status: StatusUnbounded, iters: p.iters}, nil
		}
		return lpResult{iters: p.iters}, err
	}
	// Final reinversion wipes the eta drift accumulated since the last
	// refactorization before the solution is extracted; failure here means
	// the optimal basis itself is numerically singular — report it and let
	// solveLP fall back to the dense oracle.
	if err := p.refactorize(); err != nil {
		return lpResult{iters: p.iters}, err
	}
	return p.optimalResult(mod, lbs, ubs)
}

// optimalResult extracts the solution of an optimal, freshly refactorized
// basis, checks it against its box and snapshots the basis.
func (p *rsLP) optimalResult(mod *Model, lbs, ubs []float64) (lpResult, error) {
	x := p.solution()
	// Exit feasibility: an optimal basis whose solution leaves its box is
	// a simplex bookkeeping bug, never a property of the model.
	if err := invariant.BoundedValues("ilp.lp-solution", x, lbs, ubs, 10*feasTol); err != nil {
		return lpResult{iters: p.iters}, err
	}
	return lpResult{status: StatusOptimal, x: x, obj: mod.Objective(x), iters: p.iters, basis: p.snapshot()}, nil
}

// basisSnap is a compact copy of an optimal basis: the basic column of
// every row and the status of every column. A branch & bound node keeps
// its LP's snapshot for both children to warm-start from; columns are laid
// out identically by every lowering of one model, so a snapshot taken in
// one lowering loads into another.
type basisSnap struct {
	basis  []int32
	status []varStatus
}

func (p *rsLP) snapshot() *basisSnap {
	s := &basisSnap{basis: make([]int32, p.m), status: append([]varStatus(nil), p.status...)}
	for i, b := range p.basis {
		s.basis[i] = int32(b)
	}
	return s
}

// The warm path: a bounded-variable dual simplex over the shared lowering.
//
// A child of a branch & bound node differs from its parent only in
// bounds, and bounds do not enter the reduced costs, so the parent's
// optimal basis stays dual feasible in the child. Loading it, moving the
// nonbasic columns to their new bounds and reinverting gives a basis that
// is dual feasible but (where a bound cut through the parent's solution)
// primal infeasible — exactly where the dual simplex starts. Each
// iteration picks the most-violated basic row to leave (dual Dantzig
// pricing), computes that row of B⁻¹N by one BTRAN, and runs the dual
// ratio test (Harris' two passes, largest pivot among near-ties) to pick
// the entering column that keeps every reduced cost sign-correct. The
// objective c·x of a dual feasible basis is a lower bound on the node's
// LP optimum and never decreases, so the solve stops as soon as it meets
// the caller's cutoff. No entering column means the node is infeasible.
//
// Any trouble — a singular basis, a start that is not dual feasible, the
// iteration limit, an exit-invariant failure — is returned as an error,
// and the caller re-solves the node cold. Correctness never depends on
// this path.

// errNotDualFeasible reports a warm start whose basis prices an unbounded
// column the wrong way; only the cold path can solve from there.
var errNotDualFeasible = errors.New("ilp: warm-start basis is not dual feasible")

// loadWarm sets node bounds and the snapshot's basis, then reinverts.
// It returns false when the bounds leave some variable an empty box.
func (p *rsLP) loadWarm(snap *basisSnap, lbs, ubs []float64) (bool, error) {
	for j := 0; j < p.nStruct; j++ {
		lo, up := lbs[j], ubs[j]
		if lo > up+feasTol {
			return false, nil
		}
		if up < lo {
			up = lo
		}
		p.lo[j], p.up[j] = lo, up
	}
	for j := p.nStruct; j < p.firstArt; j++ {
		p.lo[j], p.up[j] = 0, math.Inf(1)
	}
	for j := p.firstArt; j < p.n; j++ {
		p.lo[j], p.up[j] = 0, 0
	}
	p.activeN = p.firstArt
	p.iters = 0
	for i, b := range snap.basis {
		p.basis[i] = int(b)
	}
	copy(p.status, snap.status)
	return true, p.refactorize()
}

// computeDuals sets the reduced costs d of every priced nonbasic column
// for the phase-2 costs, then restores dual feasibility by moving boxed
// columns to the bound their reduced cost prefers. A wrong-signed column
// with no upper bound cannot be repaired that way: errNotDualFeasible.
func (p *rsLP) computeDuals() error {
	if len(p.d) != p.n {
		p.d = make([]float64, p.n)
		p.alpha = make([]float64, p.n)
	}
	y := p.y
	for i, b := range p.basis {
		y[i] = p.cost[b]
	}
	p.btran(y)
	flipped := false
	for j := 0; j < p.activeN; j++ {
		st := p.status[j]
		if st == isBasic {
			p.d[j] = 0
			continue
		}
		d := p.cost[j]
		col := &p.cols[j]
		for t, i := range col.ind {
			d -= y[i] * col.val[t]
		}
		p.d[j] = d
		if zero(p.up[j] - p.lo[j]) {
			continue
		}
		switch {
		case st == atLower && d < -costTol:
			if math.IsInf(p.up[j], 1) {
				return errNotDualFeasible
			}
			p.status[j], flipped = atUpper, true
		case st == atUpper && d > costTol:
			p.status[j], flipped = atLower, true
		}
	}
	if flipped {
		p.recomputeXB()
	}
	return nil
}

// chooseLeaving returns the basic row with the largest bound violation and
// the side it violates (s = +1 below its lower bound, −1 above its upper),
// or r = −1 when the basic solution is primal feasible.
func (p *rsLP) chooseLeaving() (r int, s float64) {
	r, worst := -1, feasTol
	for i, b := range p.basis {
		x := p.xB[i]
		if v := p.lo[b] - x; v > worst {
			r, s, worst = i, 1, v
		} else if v := x - p.up[b]; v > worst {
			r, s, worst = i, -1, v
		}
	}
	return r, s
}

// dualRatioTest fills p.alpha with row r of B⁻¹N (rho holds row r of B⁻¹)
// for every movable nonbasic column and returns the entering column, or −1
// when no column can move the leaving variable toward its bound.
func (p *rsLP) dualRatioTest(rho []float64, s float64) int {
	// Pass 1: the largest step that keeps every reduced cost within
	// costTol of sign-correct.
	tMax := math.Inf(1)
	for j := 0; j < p.activeN; j++ {
		st := p.status[j]
		if st == isBasic || zero(p.up[j]-p.lo[j]) {
			continue
		}
		a := 0.0
		col := &p.cols[j]
		for t, i := range col.ind {
			a += rho[i] * col.val[t]
		}
		p.alpha[j] = a
		g, ga := p.d[j], -s*a
		if st == atUpper {
			g, ga = -g, -ga
		}
		if ga > pivotTol {
			if t := (g + costTol) / ga; t < tMax {
				tMax = t
			}
		}
	}
	if math.IsInf(tMax, 1) {
		return -1
	}
	// Pass 2: among the columns whose exact ratio fits under tMax, the
	// largest pivot — the numerically safest choice.
	q, best := -1, 0.0
	for j := 0; j < p.activeN; j++ {
		st := p.status[j]
		if st == isBasic || zero(p.up[j]-p.lo[j]) {
			continue
		}
		g, ga := p.d[j], -s*p.alpha[j]
		if st == atUpper {
			g, ga = -g, -ga
		}
		if ga > pivotTol && g/ga <= tMax && ga > best {
			q, best = j, ga
		}
	}
	return q
}

// objective is c·x at the current basic solution.
func (p *rsLP) objective() float64 {
	obj := 0.0
	for j := 0; j < p.nStruct; j++ {
		if c := p.cost[j]; !zero(c) && p.status[j] != isBasic {
			obj += c * p.nonbasicValue(j)
		}
	}
	for i, b := range p.basis {
		if c := p.cost[b]; !zero(c) {
			obj += c * p.xB[i]
		}
	}
	return obj
}

// warmIterFactor caps a warm solve at this many iterations per row before
// it gives up and the node is re-solved cold: a child is a few bound
// changes from its parent, so a longer dual solve is cycling or drifting.
const warmIterFactor = 4

// solveWarm solves the LP with bounds lbs/ubs by dual simplex from snap.
// stop, when non-nil, is asked the running objective (a lower bound on
// the node's optimum) before every iteration; when it answers true the
// solve ends with cutoff set and that bound as obj.
func (p *rsLP) solveWarm(ctx context.Context, mod *Model, snap *basisSnap, lbs, ubs []float64, deadline time.Time, stop func(float64) bool) (lpResult, error) {
	p.deadline, p.ctx = deadline, ctx
	ok, err := p.loadWarm(snap, lbs, ubs)
	if !ok || err != nil {
		return lpResult{status: StatusInfeasible}, err
	}
	if err := p.computeDuals(); err != nil {
		return lpResult{}, err
	}
	maxIters := warmIterFactor*p.m + 1000
	rho := p.y
	confirmed := false // x_B was just recomputed and is primal feasible
	for {
		r, s := p.chooseLeaving()
		if r < 0 {
			if confirmed {
				return p.optimalResult(mod, lbs, ubs)
			}
			// Confirm feasibility on x_B recomputed from b through the
			// eta file: drift in the incrementally updated x_B must not
			// fake it.
			p.recomputeXB()
			confirmed = true
			continue
		}
		confirmed = false
		if stop != nil {
			if obj := p.objective(); stop(obj) {
				return lpResult{status: StatusOptimal, obj: obj, iters: p.iters, cutoff: true}, nil
			}
		}
		p.iters++
		if p.iters > maxIters {
			return lpResult{iters: p.iters}, errIterLimit
		}
		if !p.deadline.IsZero() && time.Now().After(p.deadline) {
			return lpResult{iters: p.iters}, errTimeLimit
		}
		if p.ctx != nil {
			select {
			case <-p.ctx.Done():
				return lpResult{iters: p.iters}, errTimeLimit
			default:
			}
		}
		for i := range rho {
			rho[i] = 0
		}
		rho[r] = 1
		p.btran(rho)
		q := p.dualRatioTest(rho, s)
		if q < 0 {
			if p.pivots == 0 {
				// The row proves it: no nonbasic column can move its basic
				// variable back inside the box.
				return lpResult{status: StatusInfeasible, iters: p.iters}, nil
			}
			if err := p.refactorize(); err != nil {
				return lpResult{iters: p.iters}, err
			}
			if err := p.computeDuals(); err != nil {
				return lpResult{iters: p.iters}, err
			}
			continue
		}
		w := p.w
		p.loadCol(q, w)
		p.ftran(w)
		if aq := p.alpha[q]; math.Abs(w[r]-aq) > 1e-7*(1+math.Abs(aq)) {
			// The FTRAN'd column and the BTRAN'd row disagree on the
			// pivot: the eta file has drifted. Reinvert and retry.
			if p.pivots == 0 {
				return lpResult{iters: p.iters}, errSingularBasis
			}
			if err := p.refactorize(); err != nil {
				return lpResult{iters: p.iters}, err
			}
			if err := p.computeDuals(); err != nil {
				return lpResult{iters: p.iters}, err
			}
			continue
		}
		p.dualPivot(q, r, s, w)
		if p.pivots >= refactorEvery || p.etaNNZ > p.etaBudget() {
			if err := p.refactorize(); err != nil {
				return lpResult{iters: p.iters}, err
			}
			if err := p.computeDuals(); err != nil {
				return lpResult{iters: p.iters}, err
			}
		}
	}
}

// dualPivot exchanges entering column q (FTRAN'd into w) for the basic
// variable of row r, which leaves at the bound it violated (s = +1:
// lower, −1: upper). Reduced costs move along the pivot row p.alpha.
func (p *rsLP) dualPivot(q, r int, s float64, w []float64) {
	leaving := p.basis[r]
	target := p.lo[leaving]
	if s < 0 {
		target = p.up[leaving]
	}
	// Dual step: the entering column's reduced cost reaches zero.
	t := p.d[q] / (-s * p.alpha[q])
	if t < 0 {
		t = 0
	}
	for j := 0; j < p.activeN; j++ {
		if p.status[j] != isBasic && !zero(p.up[j]-p.lo[j]) {
			p.d[j] += s * t * p.alpha[j]
		}
	}
	// Primal step: x_q moves until the leaving variable sits on target.
	delta := (p.xB[r] - target) / w[r]
	for i := range p.xB {
		if i != r && !zero(w[i]) {
			p.xB[i] -= w[i] * delta
		}
	}
	if s > 0 {
		p.status[leaving] = atLower
	} else {
		p.status[leaving] = atUpper
	}
	if leaving < p.activeN {
		p.d[leaving] = s * t
	}
	p.xB[r] = p.nonbasicValue(q) + delta
	p.d[q] = 0
	p.basis[r] = q
	p.status[q] = isBasic
	p.appendEta(w, r)
}
