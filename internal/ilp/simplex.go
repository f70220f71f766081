package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"compact/internal/invariant"
)

// The dense LP reference: a dense bounded-variable two-phase primal
// simplex. The production LP core is the sparse revised simplex in
// revised.go; this implementation is kept as its differential-testing
// oracle and numerical fallback.
//
// The model is lowered to equality standard form A x = b with per-variable
// bounds [lo, up] (up may be +Inf; lo must be finite). Slack variables turn
// inequalities into equalities; one artificial variable per row provides a
// trivially feasible starting basis for phase 1.

const (
	costTol  = 1e-7
	pivotTol = 1e-8
	feasTol  = 1e-6
)

// zero reports whether x is exactly 0. Simplex and model code skip
// exact-zero coefficients purely to preserve sparsity and avoid useless
// arithmetic — it is never a tolerance decision (those use costTol,
// pivotTol and feasTol). The one deliberate exact float comparison in this
// package lives here.
//
//lint:ignore floatcmp centralized exact-zero sparsity fast path
func zero(x float64) bool { return x == 0 }

var errIterLimit = errors.New("ilp: simplex iteration limit reached")

// errTimeLimit aborts an LP solve that runs past the global deadline.
var errTimeLimit = errors.New("ilp: time limit reached during LP solve")

type varStatus uint8

const (
	atLower varStatus = iota
	atUpper
	isBasic
)

// lp is a lowered LP instance plus simplex working state.
type lp struct {
	m, n     int // rows, total columns (structural + slack + artificial)
	nStruct  int
	firstArt int // index of first artificial column
	tab      [][]float64
	lo, up   []float64
	cost     []float64 // phase-2 cost, structural entries only nonzero
	status   []varStatus
	basis    []int     // basic column per row
	xB       []float64 // value of the basic variable per row
	d        []float64 // reduced-cost row for the active phase
	cols     []int     // active (non-pinned) columns scanned by the simplex
	iters    int
	maxIters int
	deadline time.Time       // zero = no limit; checked every iteration in optimize
	ctx      context.Context // nil = no cancellation; checked every iteration
}

// lower converts the model (with bound overrides for branch & bound) into
// standard form. lbs/ubs override the model's variable bounds.
func lower(mod *Model, lbs, ubs []float64) (*lp, error) {
	nStruct := mod.NumVars()
	m := mod.NumConstrs()
	// Count slacks.
	nSlack := 0
	for _, c := range mod.constrs {
		if c.Sense != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack + m // + artificials
	p := &lp{
		m: m, n: n, nStruct: nStruct, firstArt: nStruct + nSlack,
		lo: make([]float64, n), up: make([]float64, n),
		cost:   make([]float64, n),
		status: make([]varStatus, n),
		basis:  make([]int, m),
		xB:     make([]float64, m),
		d:      make([]float64, n),
	}
	for j := 0; j < nStruct; j++ {
		p.lo[j], p.up[j] = lbs[j], ubs[j]
		if math.IsInf(p.lo[j], -1) {
			return nil, fmt.Errorf("ilp: variable %q has infinite lower bound (unsupported)", mod.names[j])
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
	p.tab = make([][]float64, m)
	slack := nStruct
	for i, c := range mod.constrs {
		row := make([]float64, n)
		rhs := c.RHS
		sign := 1.0
		if c.Sense == GE {
			sign = -1.0
			rhs = -rhs
		}
		for _, t := range c.Terms {
			row[t.Var] += sign * t.Coeff
		}
		if c.Sense != EQ {
			row[slack] = 1
			slack++
		}
		// Residual at the initial point (structurals and slacks at lower
		// bound, i.e. slacks at 0). Negate rows with negative residual so
		// the artificial column is a +1 unit column (the simplex invariant
		// that basic columns are unit vectors must hold from the start).
		res := rhs
		for j := 0; j < nStruct; j++ {
			res -= row[j] * p.lo[j]
		}
		if res < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			res = -res
		}
		art := p.firstArt + i
		row[art] = 1
		p.basis[i] = art
		p.xB[i] = res
		p.status[art] = isBasic
		p.tab[i] = row
	}
	p.cols = make([]int, n)
	for j := range p.cols {
		p.cols[j] = j
	}
	p.maxIters = 200*(m+1) + 20*n + 2000
	return p, nil
}

var errBoundsInfeasible = errors.New("ilp: variable bounds infeasible")

// value returns the current value of column j.
func (p *lp) value(j int) float64 {
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
func (p *lp) solution() []float64 {
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

// computeReducedCosts fills p.d for cost vector c: d = c - c_B^T T.
func (p *lp) computeReducedCosts(c []float64) {
	copy(p.d, c)
	for i, b := range p.basis {
		cb := c[b]
		if zero(cb) {
			continue
		}
		row := p.tab[i]
		for _, j := range p.cols {
			p.d[j] -= cb * row[j]
		}
	}
	// Clean basic columns exactly.
	for _, b := range p.basis {
		p.d[b] = 0
	}
}

// optimize runs bounded-variable primal simplex for cost vector c until
// optimality. Returns errIterLimit or an unbounded indication.
var errUnbounded = errors.New("ilp: LP unbounded")

func (p *lp) optimize(c []float64) error {
	p.computeReducedCosts(c)
	noImprove := 0
	blandThreshold := 4 * (p.m + 64)
	lastObj := math.Inf(1)
	for {
		p.iters++
		if p.iters > p.maxIters {
			return errIterLimit
		}
		// Check the deadline every iteration, not on a stride: one pivot on
		// a large tableau is O(m·n) — easily milliseconds near the 1 GiB
		// tableau cap — so a strided check could overshoot the budget by
		// many seconds while a per-iteration time.Now() costs nanoseconds.
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
		bland := noImprove > blandThreshold
		q, dir := p.chooseEntering(bland)
		if q < 0 {
			return nil // optimal
		}
		flip, r, hitUpper, t, err := p.ratioTest(q, dir)
		if err != nil {
			return err
		}
		if t > 1e-12 {
			noImprove = 0
		} else {
			noImprove++
		}
		_ = lastObj
		if flip {
			// Bound flip: move q across its range; update basics.
			for i := range p.xB {
				p.xB[i] -= p.tab[i][q] * dir * t
			}
			if p.status[q] == atLower {
				p.status[q] = atUpper
			} else {
				p.status[q] = atLower
			}
			continue
		}
		p.pivot(q, dir, r, hitUpper, t)
	}
}

// chooseEntering returns an improving nonbasic column and its direction
// (+1 entering increases from lower bound, -1 decreases from upper), or
// (-1, 0) at optimality.
func (p *lp) chooseEntering(bland bool) (int, float64) {
	bestJ, bestScore, bestDir := -1, costTol, 0.0
	for _, j := range p.cols {
		var score, dir float64
		switch p.status[j] {
		case atLower:
			if zero(p.up[j] - p.lo[j]) {
				continue // fixed variable can never move
			}
			score, dir = -p.d[j], 1
		case atUpper:
			if zero(p.up[j] - p.lo[j]) {
				continue
			}
			score, dir = p.d[j], -1
		default:
			continue
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

// ratioTest computes how far entering column q may move in direction dir.
// It returns flip=true if q's own opposite bound is the binding limit;
// otherwise the leaving row r and whether the leaving basic variable hits
// its upper bound.
func (p *lp) ratioTest(q int, dir float64) (flip bool, r int, hitUpper bool, t float64, err error) {
	t = math.Inf(1)
	if !math.IsInf(p.up[q], 1) {
		t = p.up[q] - p.lo[q]
	}
	flip = true
	r = -1
	for i := 0; i < p.m; i++ {
		a := p.tab[i][q]
		if math.Abs(a) < pivotTol {
			continue
		}
		rate := -a * dir // d(xB_i)/d(step)
		b := p.basis[i]
		var ti float64
		var toUpper bool
		if rate < 0 {
			ti = (p.xB[i] - p.lo[b]) / -rate
			toUpper = false
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

// pivot performs the basis exchange: q enters (moving dir*t from its bound),
// the basic variable of row r leaves to its lower or upper bound.
func (p *lp) pivot(q int, dir float64, r int, hitUpper bool, t float64) {
	start := p.lo[q]
	if p.status[q] == atUpper {
		start = p.up[q]
	}
	newVal := start + dir*t
	for i := range p.xB {
		if i != r {
			p.xB[i] -= p.tab[i][q] * dir * t
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
	p.xB[r] = newVal

	// Gaussian elimination on column q.
	rowR := p.tab[r]
	piv := rowR[q]
	inv := 1 / piv
	for _, j := range p.cols {
		rowR[j] *= inv
	}
	rowR[q] = 1
	for i := 0; i < p.m; i++ {
		if i == r {
			continue
		}
		f := p.tab[i][q]
		if zero(f) {
			continue
		}
		row := p.tab[i]
		for _, j := range p.cols {
			row[j] -= f * rowR[j]
		}
		row[q] = 0
	}
	if f := p.d[q]; !zero(f) {
		for _, j := range p.cols {
			p.d[j] -= f * rowR[j]
		}
		p.d[q] = 0
	}
}

// lpResult is the outcome of one LP relaxation solve.
type lpResult struct {
	status Status
	x      []float64
	obj    float64
	iters  int
	// basis is the optimal basis of a revised solve, for warm-starting
	// descendants; nil from the dense oracle.
	basis *basisSnap
	// fallback marks a solve that left its fast path: warm dual → cold
	// primal, or revised → dense.
	fallback bool
	// cutoff marks a warm solve stopped early: obj is a lower bound on
	// the LP optimum that already meets the caller's cutoff, and x is nil.
	cutoff bool
}

// solveLPDense solves the LP relaxation of mod with the given bound
// overrides using the dense tableau simplex. It is retained as the
// reference implementation for the sparse revised simplex (solveLP in
// revised.go): the two must agree on status and objective, a property the
// revised tests pin on random vertex-cover models, and solveLP falls back
// here on the rare numerical failure of the eta-file machinery. A non-zero
// deadline or a cancelled context aborts the solve with errTimeLimit.
func solveLPDense(ctx context.Context, mod *Model, lbs, ubs []float64, deadline time.Time) (lpResult, error) {
	p, err := lower(mod, lbs, ubs)
	if err != nil {
		if errors.Is(err, errBoundsInfeasible) {
			return lpResult{status: StatusInfeasible}, nil
		}
		return lpResult{}, err
	}
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
	// Pin artificials at zero for phase 2 and drop their columns from
	// the active scan: pinned columns can never re-enter the basis, and a
	// still-basic artificial stays parked at zero without needing its
	// (now stale) tableau column.
	for j := p.firstArt; j < p.n; j++ {
		p.up[j] = 0
	}
	p.cols = p.cols[:p.firstArt]
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
	x := p.solution()
	// Exit feasibility: an optimal basis whose solution leaves its box is
	// a simplex bookkeeping bug, never a property of the model.
	if err := invariant.BoundedValues("ilp.lp-solution", x, lbs, ubs, 10*feasTol); err != nil {
		return lpResult{iters: p.iters}, err
	}
	return lpResult{status: StatusOptimal, x: x, obj: mod.Objective(x), iters: p.iters}, nil
}
