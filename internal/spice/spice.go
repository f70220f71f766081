// Package spice validates flow-based crossbar designs electrically,
// standing in for the SPICE simulations of the paper (Section VIII, using
// the memristor model of reference [33]). Every crosspoint of a fabricated
// crossbar holds a memristor; cells programmed '0' are in the high
// resistive state, not absent. The package builds the resistive network of
// a programmed crossbar — input wordline driven through a source
// resistance, every output wordline loaded by a sense resistor to ground —
// and solves the nodal equations by dense Gaussian elimination (small
// designs) or Jacobi-preconditioned conjugate gradient (large ones).
//
// Beyond the nominal model, the package simulates placed designs on real
// arrays: per-device resistances (ResistanceMap, log-normal variation via
// SampleResistances) and the analog consequences of a defect map that the
// logical model ignores — a stuck-ON device on the crossing of a used line
// and an unused spare ties that spare into the network as a sneak-path
// bridge, even though the placement layer correctly treats it as logically
// harmless. Env carries this electrical context; MonteCarloContext runs
// seeded variation trials over it.
package spice

import (
	"context"
	"errors"
	"fmt"
	"math"

	"compact/internal/defect"
	"compact/internal/xbar"
)

// DeviceModel collects the electrical parameters of the crossbar.
type DeviceModel struct {
	ROn     float64 // low resistive state (ohms)
	ROff    float64 // high resistive state (ohms)
	RSense  float64 // sense resistor on each output wordline (ohms)
	RDriver float64 // source resistance of the Vin driver (ohms)
	Vin     float64 // drive voltage (volts)
}

// Default returns parameters in the range of the paper's memristor model:
// R_on 10 kΩ, R_off 10 MΩ, 1 kΩ sense resistors, 50 Ω driver, 1 V drive.
// The 10^3 on/off ratio is sufficient for small arrays; larger designs
// accumulate leakage through the many parallel off-state sneak paths and
// need HighContrast (see the validate example).
func Default() DeviceModel {
	return DeviceModel{ROn: 10e3, ROff: 10e6, RSense: 1e3, RDriver: 50, Vin: 1}
}

// HighContrast returns a device model with a 10^5 on/off ratio and a
// larger sense resistor, as demonstrated for HfO2-class devices — the
// regime where benchmark-scale flow-based designs remain electrically
// separable.
func HighContrast() DeviceModel {
	return DeviceModel{ROn: 10e3, ROff: 1e9, RSense: 10e3, RDriver: 50, Vin: 1}
}

// Validate checks the model parameters.
func (m DeviceModel) Validate() error {
	if m.ROn <= 0 || m.ROff <= 0 || m.RSense <= 0 || m.RDriver <= 0 {
		return errors.New("spice: resistances must be positive")
	}
	if m.ROff <= m.ROn {
		return errors.New("spice: ROff must exceed ROn")
	}
	return nil
}

// maxNodes caps the nodal system: the matrix is dense, and 6000 nodes is
// already a 288 MB solve.
const maxNodes = 6000

// ErrTooLarge marks designs whose nodal system exceeds maxNodes, so
// service layers can map the condition to a typed wire error instead of
// pattern-matching message text.
var ErrTooLarge = errors.New("design exceeds the dense nodal solver limit")

// Env describes the electrical context of one simulation: the device
// model, optional per-device resistances, and the physical-array context
// (defect map + placement) whose stuck-ON faults become analog effects.
// The zero Model is invalid; everything else defaults to "nominal devices
// on an array exactly the design's size".
type Env struct {
	// Model supplies the nominal device parameters and the drive/sense
	// configuration.
	Model DeviceModel
	// Res pins per-device resistances in physical coordinates (nil =
	// every device nominal). Its dimensions must match the physical array:
	// the defect map's when Defects is set, the design's otherwise.
	Res *ResistanceMap
	// Defects is the physical array context. Stuck devices override the
	// conductance of the cells placed on them, and stuck-ON devices on
	// used×spare crossings tie the spare line in as a sneak-path bridge.
	// nil means the array is exactly the design with no faults.
	Defects *defect.Map
	// Placement binds logical lines to physical ones (nil = identity).
	Placement *xbar.Placement
}

// nodal is a compiled simulation of one (design, Env) pair: the node
// space (used wordlines, used bitlines, plus any spare lines tied in by
// stuck-ON bridges), the stuck-state overrides, and the bridge edges —
// everything that does not change between assignments or Monte Carlo
// trials. simulate is re-entrant: concurrent trials share one nodal.
type nodal struct {
	d                  *xbar.Design
	model              DeviceModel
	res                *ResistanceMap
	physRows, physCols int
	rowPhys, colPhys   []int  // logical line -> physical line
	override           []int8 // per logical cell: 0 none, +1 stuck-ON, -1 stuck-OFF
	n                  int    // total nodes incl. bridge-tied spares
	bridges            []bridgeEdge
}

// bridgeEdge is one stuck-ON device tying a spare line into the array: a
// conductance of 1/R_on between two nodes of the extended system.
type bridgeEdge struct {
	a, b   int // extended node indices
	pr, pc int // physical device position (per-device resistance lookup)
}

func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// checkLinePerm verifies that perm maps logical lines injectively into
// 0..bound-1 physical ones.
func checkLinePerm(what string, perm []int, bound int) error {
	seen := make(map[int]bool, len(perm))
	for i, p := range perm {
		if p < 0 || p >= bound {
			return fmt.Errorf("spice: %s placement maps %d to %d, outside 0..%d", what, i, p, bound-1)
		}
		if seen[p] {
			return fmt.Errorf("spice: %s placement maps two lines to physical line %d", what, p)
		}
		seen[p] = true
	}
	return nil
}

// compile validates the Env against the design and precomputes the placed
// node space, stuck overrides and bridge topology.
func compile(d *xbar.Design, env Env) (*nodal, error) {
	if err := env.Model.Validate(); err != nil {
		return nil, err
	}
	na := &nodal{d: d, model: env.Model, res: env.Res, physRows: d.Rows, physCols: d.Cols}
	if env.Defects != nil {
		na.physRows, na.physCols = env.Defects.Rows(), env.Defects.Cols()
	}
	if pl := env.Placement; pl != nil {
		if len(pl.RowPerm) != d.Rows || len(pl.ColPerm) != d.Cols {
			return nil, fmt.Errorf("spice: placement shape %dx%d does not match the %dx%d design",
				len(pl.RowPerm), len(pl.ColPerm), d.Rows, d.Cols)
		}
		na.rowPhys, na.colPhys = pl.RowPerm, pl.ColPerm
	} else {
		if na.physRows < d.Rows || na.physCols < d.Cols {
			return nil, fmt.Errorf("spice: %dx%d design does not fit the %dx%d physical array",
				d.Rows, d.Cols, na.physRows, na.physCols)
		}
		na.rowPhys, na.colPhys = identityPerm(d.Rows), identityPerm(d.Cols)
	}
	if err := checkLinePerm("wordline", na.rowPhys, na.physRows); err != nil {
		return nil, err
	}
	if err := checkLinePerm("bitline", na.colPhys, na.physCols); err != nil {
		return nil, err
	}
	if env.Res != nil {
		if err := env.Res.Validate(); err != nil {
			return nil, err
		}
		if env.Res.Rows != na.physRows || env.Res.Cols != na.physCols {
			return nil, fmt.Errorf("spice: resistance map %dx%d does not match the %dx%d physical array",
				env.Res.Rows, env.Res.Cols, na.physRows, na.physCols)
		}
	}
	na.n = d.Rows + d.Cols
	if env.Defects.Len() > 0 {
		na.compileDefects(env.Defects)
	}
	if na.n > maxNodes {
		return nil, fmt.Errorf("spice: %d nanowire nodes exceed the %d-node cap: %w", na.n, maxNodes, ErrTooLarge)
	}
	return na, nil
}

// compileDefects records stuck-state overrides for cells placed on faulty
// devices and ties in spare lines reachable from the used array through
// chains of stuck-ON devices. Spare lines not so reachable stay floating
// (they carry no current and would make the system singular); stuck-OFF
// faults on spare crossings are ignored, as are the healthy off-state
// devices on spare crossings — their leakage onto a floating line is
// second-order next to a stuck-ON short (documented approximation,
// DESIGN §14).
func (na *nodal) compileDefects(dm *defect.Map) {
	d := na.d
	invRow := make([]int, na.physRows)
	invCol := make([]int, na.physCols)
	for i := range invRow {
		invRow[i] = -1
	}
	for i := range invCol {
		invCol[i] = -1
	}
	for r, pr := range na.rowPhys {
		invRow[pr] = r
	}
	for c, pc := range na.colPhys {
		invCol[pc] = c
	}

	type fault struct{ pr, pc int }
	var stuckOn []fault
	for _, fc := range dm.Cells() {
		r, c := invRow[fc.Row], invCol[fc.Col]
		if r >= 0 && c >= 0 {
			// Used×used crossing: the fabricated device pins the cell's
			// conductance regardless of what the design programs there.
			if na.override == nil {
				na.override = make([]int8, d.Rows*d.Cols)
			}
			if fc.Kind == defect.StuckOn {
				na.override[r*d.Cols+c] = 1
			} else {
				na.override[r*d.Cols+c] = -1
			}
			continue
		}
		if fc.Kind == defect.StuckOn {
			stuckOn = append(stuckOn, fault{fc.Row, fc.Col})
		}
	}
	if len(stuckOn) == 0 {
		return
	}

	// Phase 1: BFS from the used lines over stuck-ON adjacency to find the
	// spare lines that are electrically tied in (possibly through chains of
	// spares bridged to each other).
	rowReach := make([]bool, na.physRows)
	colReach := make([]bool, na.physCols)
	for _, pr := range na.rowPhys {
		rowReach[pr] = true
	}
	for _, pc := range na.colPhys {
		colReach[pc] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range stuckOn {
			if rowReach[f.pr] && !colReach[f.pc] {
				colReach[f.pc] = true
				changed = true
			}
			if colReach[f.pc] && !rowReach[f.pr] {
				rowReach[f.pr] = true
				changed = true
			}
		}
	}

	// Phase 2: assign extended node ids to the reached spares (deterministic
	// line order) and emit one bridge edge per stuck-ON device whose both
	// endpoints are present and at least one is a spare.
	rowNode := make([]int, na.physRows)
	colNode := make([]int, na.physCols)
	for i := range rowNode {
		rowNode[i] = -1
	}
	for i := range colNode {
		colNode[i] = -1
	}
	for r, pr := range na.rowPhys {
		rowNode[pr] = r
	}
	for c, pc := range na.colPhys {
		colNode[pc] = d.Rows + c
	}
	next := d.Rows + d.Cols
	for pr := 0; pr < na.physRows; pr++ {
		if rowReach[pr] && rowNode[pr] < 0 {
			rowNode[pr] = next
			next++
		}
	}
	for pc := 0; pc < na.physCols; pc++ {
		if colReach[pc] && colNode[pc] < 0 {
			colNode[pc] = next
			next++
		}
	}
	na.n = next
	for _, f := range stuckOn {
		if !rowReach[f.pr] || !colReach[f.pc] {
			continue // floating island: no used line feeds it
		}
		if invRow[f.pr] >= 0 && invCol[f.pc] >= 0 {
			continue // used×used: handled by the override above
		}
		na.bridges = append(na.bridges, bridgeEdge{a: rowNode[f.pr], b: colNode[f.pc], pr: f.pr, pc: f.pc})
	}
}

// conductances returns the on/off conductance of the device at physical
// (pr, pc) under res (nil = nominal model values).
func (na *nodal) conductances(pr, pc int, res *ResistanceMap) (gOn, gOff float64) {
	if res == nil {
		return 1 / na.model.ROn, 1 / na.model.ROff
	}
	return 1 / res.OnAt(pr, pc), 1 / res.OffAt(pr, pc)
}

// system assembles the conductance matrix and current vector for one
// assignment. res overrides the compiled Env's resistance map when non-nil
// (the Monte Carlo per-trial path); dimensions must match the physical
// array.
func (na *nodal) system(assignment []bool, res *ResistanceMap) ([][]float64, []float64, error) {
	if res == nil {
		res = na.res
	} else if res.Rows != na.physRows || res.Cols != na.physCols {
		return nil, nil, fmt.Errorf("spice: resistance map %dx%d does not match the %dx%d physical array",
			res.Rows, res.Cols, na.physRows, na.physCols)
	}
	d := na.d
	n := na.n
	g := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range g {
		g[i], backing = backing[:n:n], backing[n:]
	}
	b := make([]float64, n)

	eachCrossing(d, func(r, c int, e xbar.Entry) {
		on := e.Conducts(assignment)
		if na.override != nil {
			switch na.override[r*d.Cols+c] {
			case 1:
				on = true
			case -1:
				on = false
			}
		}
		gOn, gOff := na.conductances(na.rowPhys[r], na.colPhys[c], res)
		gc := gOff
		if on {
			gc = gOn
		}
		i, j := r, d.Rows+c
		g[i][i] += gc
		g[j][j] += gc
		g[i][j] -= gc
		g[j][i] -= gc
	})
	for _, br := range na.bridges {
		gOn, _ := na.conductances(br.pr, br.pc, res)
		g[br.a][br.a] += gOn
		g[br.b][br.b] += gOn
		g[br.a][br.b] -= gOn
		g[br.b][br.a] -= gOn
	}
	// Driver on the input wordline.
	gd := 1 / na.model.RDriver
	g[d.InputRow][d.InputRow] += gd
	b[d.InputRow] += na.model.Vin * gd
	// Sense resistors on output wordlines (one per distinct row; the input
	// row doubles as the const-1 output row and is not additionally loaded).
	seen := make(map[int]bool)
	for _, r := range d.OutputRows {
		if r == d.InputRow || seen[r] {
			continue
		}
		seen[r] = true
		g[r][r] += 1 / na.model.RSense
	}
	return g, b, nil
}

// simulate solves the nodal system for one assignment and returns the
// output wordline voltages (parallel to d.OutputRows).
func (na *nodal) simulate(assignment []bool, res *ResistanceMap) ([]float64, error) {
	g, b, err := na.system(assignment, res)
	if err != nil {
		return nil, err
	}
	var v []float64
	if na.n <= 500 {
		v, err = solveDense(g, b)
	} else {
		v, err = solveCG(g, b)
	}
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(na.d.OutputRows))
	for i, r := range na.d.OutputRows {
		out[i] = v[r]
	}
	return out, nil
}

// Simulate computes the voltage on every output wordline of the programmed
// crossbar under the given assignment (indexed by Entry.Var), with nominal
// devices on a fault-free array. The returned slice parallels
// d.OutputRows.
func Simulate(d *xbar.Design, assignment []bool, model DeviceModel) ([]float64, error) {
	return SimulateEnv(d, assignment, Env{Model: model})
}

// SimulateEnv computes the output voltages under a full electrical
// context: per-device resistances, stuck-fault overrides and spare-line
// bridges per env. Callers simulating many assignments or trials against
// one context should prefer MarginContext / MonteCarloContext, which
// compile the context once.
func SimulateEnv(d *xbar.Design, assignment []bool, env Env) ([]float64, error) {
	na, err := compile(d, env)
	if err != nil {
		return nil, err
	}
	return na.simulate(assignment, nil)
}

// solveDense is Gaussian elimination with partial pivoting (destroys g, b).
// zero reports whether x is exactly 0 — a sparsity fast path in the linear
// solvers (skip a zero elimination multiplier, zero RHS shortcut), never a
// tolerance decision.
//
//lint:ignore floatcmp centralized exact-zero sparsity fast path
func zero(x float64) bool { return x == 0 }

func solveDense(g [][]float64, b []float64) ([]float64, error) {
	n := len(g)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(g[r][col]) > math.Abs(g[p][col]) {
				p = r
			}
		}
		if math.Abs(g[p][col]) < 1e-18 {
			return nil, fmt.Errorf("spice: singular conductance matrix at column %d", col)
		}
		g[col], g[p] = g[p], g[col]
		b[col], b[p] = b[p], b[col]
		inv := 1 / g[col][col]
		for r := col + 1; r < n; r++ {
			f := g[r][col] * inv
			if zero(f) {
				continue
			}
			row, prow := g[r], g[col]
			for c := col; c < n; c++ {
				row[c] -= f * prow[c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		row := g[r]
		for c := r + 1; c < n; c++ {
			s -= row[c] * x[c]
		}
		x[r] = s / row[r]
	}
	return x, nil
}

// solveCG is Jacobi-preconditioned conjugate gradient for the SPD nodal
// matrix.
func solveCG(g [][]float64, b []float64) ([]float64, error) {
	n := len(g)
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = g[i][i]
		if diag[i] <= 0 {
			return nil, fmt.Errorf("spice: non-positive diagonal at node %d", i)
		}
	}
	bnorm := 0.0
	for _, bi := range b {
		bnorm += bi * bi
	}
	bnorm = math.Sqrt(bnorm)
	if zero(bnorm) {
		return x, nil
	}
	rz := 0.0
	for i := range r {
		z[i] = r[i] / diag[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}
	maxIter := 20*n + 100
	for iter := 0; iter < maxIter; iter++ {
		// ap = G p.
		for i := 0; i < n; i++ {
			s := 0.0
			row := g[i]
			for j := 0; j < n; j++ {
				s += row[j] * p[j]
			}
			ap[i] = s
		}
		pap := 0.0
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			return nil, errors.New("spice: matrix not positive definite")
		}
		alpha := rz / pap
		rnorm := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			rnorm += r[i] * r[i]
		}
		if math.Sqrt(rnorm) <= 1e-12*bnorm {
			return x, nil
		}
		rzNew := 0.0
		for i := range r {
			z[i] = r[i] / diag[i]
			rzNew += r[i] * z[i]
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, errors.New("spice: conjugate gradient did not converge")
}

// MarginReport summarizes the electrical separability of a design: the
// lowest output voltage observed for a logical 1 and the highest for a
// logical 0, per output and overall.
type MarginReport struct {
	MinOn     float64 // lowest voltage among logic-1 observations (+Inf if none)
	MaxOff    float64 // highest voltage among logic-0 observations (-Inf if none)
	Checked   int     // assignments simulated
	Separable bool    // MinOn > MaxOff (a sensing threshold exists)
}

// Margin is MarginContext without cancellation, against the nominal
// fault-free context.
func Margin(d *xbar.Design, ref func([]bool) []bool, nVars, exhaustiveLimit, samples int, model DeviceModel, seed uint64) (MarginReport, error) {
	return MarginContext(context.Background(), d, ref, nVars, exhaustiveLimit, samples, Env{Model: model}, seed)
}

// MarginContext simulates the design across assignments (exhaustive when
// nVars <= exhaustiveLimit, else `samples` splitmix64-seeded vectors)
// under the electrical context env, using ref for the expected logic
// values, and reports the worst-case on/off voltages. Context expiry
// returns the best-so-far report (Checked assignments in) together with
// the context error; a simulation failure returns a zero report and the
// error — never a half-trusted mixture.
func MarginContext(ctx context.Context, d *xbar.Design, ref func([]bool) []bool, nVars, exhaustiveLimit, samples int, env Env, seed uint64) (MarginReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep := MarginReport{MinOn: math.Inf(1), MaxOff: math.Inf(-1)}
	na, err := compile(d, env)
	if err != nil {
		return MarginReport{}, err
	}
	run := func(in []bool) error {
		want := ref(in)
		volts, err := na.simulate(in, nil)
		if err != nil {
			return err
		}
		for o, w := range want {
			if w {
				if volts[o] < rep.MinOn {
					rep.MinOn = volts[o]
				}
			} else if volts[o] > rep.MaxOff {
				rep.MaxOff = volts[o]
			}
		}
		rep.Checked++
		return nil
	}
	fail := func(err error) (MarginReport, error) {
		if ctxErr := ctx.Err(); ctxErr != nil {
			rep.Separable = rep.MinOn > rep.MaxOff
			return rep, ctxErr
		}
		return MarginReport{}, err
	}
	in := make([]bool, nVars)
	if nVars <= exhaustiveLimit {
		for a := 0; a < 1<<uint(nVars); a++ {
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			for i := range in {
				in[i] = a&(1<<uint(i)) != 0
			}
			if err := run(in); err != nil {
				return fail(err)
			}
		}
	} else {
		state := seed ^ variationSalt ^ 0x5bf0_3635
		for s := 0; s < samples; s++ {
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			for i := range in {
				in[i] = splitmix64(&state)&1 != 0
			}
			if err := run(in); err != nil {
				return fail(err)
			}
		}
	}
	rep.Separable = rep.MinOn > rep.MaxOff
	return rep, nil
}

// eachCrossing calls fn for every crossing of d in row-major order, Off
// ones included: nodal analysis models every device, and an Off device
// still conducts through R_off. The design's programmed cells are read in
// step with the walk.
func eachCrossing(d *xbar.Design, fn func(r, c int, e xbar.Entry)) {
	cells := d.Cells()
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			var e xbar.Entry // Off unless programmed
			if len(cells) > 0 && cells[0].Row == r && cells[0].Col == c {
				e, cells = cells[0].Entry, cells[1:]
			}
			fn(r, c, e)
		}
	}
}
