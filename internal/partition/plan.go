// Package partition implements multi-crossbar synthesis for functions
// that cannot fit one tile: when per-tile MaxRows/MaxCols caps make the
// single-crossbar VH-labeling infeasible, the logic network is cut at
// selected nets into sub-functions, each sub-function is synthesized into
// its own crossbar with the existing pipeline, and the result is a Plan —
// a cascade of tiles connected by named inter-tile nets.
//
// Cascade semantics: tiles are evaluated in topological order. A tile's
// literal variables are driven by nets — primary inputs or the sensed
// outputs of upstream tiles — and its sensed output wordlines define the
// downstream nets. This models the standard flow-based-computing cascade:
// each tile is programmed from the current net values, evaluated once,
// and its output read-outs become ordinary digital signals that program
// the next tile's memristors.
//
// A Plan carries a versioned validated JSON wire format and a content
// digest, and can be re-verified end to end: Eval simulates the cascade,
// Verify compares against a reference evaluator, and FormalVerify proves
// equivalence for all input assignments by composing the tiles' symbolic
// sneak-path functions in one BDD manager.
package partition

import (
	"crypto/sha256"
	"fmt"

	"compact/internal/bdd"
	"compact/internal/defect"
	"compact/internal/logic"
	"compact/internal/xbar"
)

// OutputRef names one primary output of a Plan and the net that carries
// its value after cascade evaluation.
type OutputRef struct {
	Name string `json:"name"`
	Net  string `json:"net"`
}

// Tile is one crossbar of the cascade plus its net binding. Inputs holds
// the net driving each design variable (indexed like Design.VarNames);
// Outputs holds the net defined by each sensed output row (indexed like
// Design.OutputRows).
type Tile struct {
	Name    string
	Inputs  []string
	Outputs []string
	Design  *xbar.Design
	// Placement, Defects and RepairAttempts record the per-tile
	// defect-aware placement outcome, when synthesis ran against a
	// defective array (same contract as core.Result).
	Placement      *xbar.Placement
	Defects        *defect.Map
	RepairAttempts int
}

// Plan is a verified multi-crossbar realization of one Boolean function:
// tiles in topological cascade order plus the net graph connecting them.
type Plan struct {
	// Name is the source network's name.
	Name string
	// Fingerprint is the source network's canonical content hash
	// (logic.Network.Fingerprint), tying the plan to the function it
	// realizes.
	Fingerprint string
	// Inputs are the primary input names, in network declaration order.
	// They double as net names driving tile literals.
	Inputs []string
	// Outputs maps each primary output to the net carrying its value.
	Outputs []OutputRef
	// Tiles are the crossbars, topologically ordered: every net a tile
	// reads is a primary input or an output of an earlier tile.
	Tiles []Tile
}

// Stats summarizes a plan's hardware cost.
type Stats struct {
	Tiles    int // number of crossbars
	CutNets  int // inter-tile nets (primary outputs included when routed)
	TotalS   int // sum of per-tile semiperimeters
	MaxRows  int // largest tile row count
	MaxCols  int // largest tile column count
	Devices  int // total programmed devices (literal + stuck-on cells)
	LitCells int // total literal cells (power proxy)
	// Depth is the cascade depth: the longest tile chain, the plan-level
	// delay proxy (each stage must be evaluated before the next can be
	// programmed).
	Depth int
}

// Stats computes the plan's summary statistics.
func (p *Plan) Stats() Stats {
	st := Stats{Tiles: len(p.Tiles)}
	primary := make(map[string]bool, len(p.Inputs))
	for _, in := range p.Inputs {
		primary[in] = true
	}
	nets := make(map[string]bool)
	// stage[net] is the cascade depth at which the net becomes available.
	stage := make(map[string]int, len(p.Inputs))
	for _, t := range p.Tiles {
		ts := t.Design.Stats()
		st.TotalS += ts.S
		st.Devices += ts.LitCells + ts.OnCells
		st.LitCells += ts.LitCells
		if ts.Rows > st.MaxRows {
			st.MaxRows = ts.Rows
		}
		if ts.Cols > st.MaxCols {
			st.MaxCols = ts.Cols
		}
		d := 0
		for _, net := range t.Inputs {
			if !primary[net] && stage[net] > d {
				d = stage[net]
			}
		}
		d++
		for _, net := range t.Outputs {
			nets[net] = true
			stage[net] = d
		}
		if d > st.Depth {
			st.Depth = d
		}
	}
	st.CutNets = len(nets)
	return st
}

// Validate checks the plan's structural invariants: tiles are
// topologically ordered over well-formed net references, every net has
// exactly one driver, tile net bindings cover their designs' variables
// and output rows, and every primary output is driven. Plans produced by
// Build always validate; wire-decoded plans are validated on decode.
func (p *Plan) Validate() error {
	defined := make(map[string]bool, len(p.Inputs))
	for _, in := range p.Inputs {
		if in == "" {
			return fmt.Errorf("partition: empty primary input name")
		}
		if defined[in] {
			return fmt.Errorf("partition: duplicate primary input %q", in)
		}
		defined[in] = true
	}
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		if t.Design == nil {
			return fmt.Errorf("partition: tile %d (%s) has no design", ti, t.Name)
		}
		if got, want := len(t.Inputs), t.Design.NumVars(); got != want {
			return fmt.Errorf("partition: tile %d (%s) binds %d input nets for %d design variables", ti, t.Name, got, want)
		}
		if got, want := len(t.Outputs), len(t.Design.OutputRows); got != want {
			return fmt.Errorf("partition: tile %d (%s) binds %d output nets for %d output rows", ti, t.Name, got, want)
		}
		for vi, net := range t.Inputs {
			if !defined[net] {
				return fmt.Errorf("partition: tile %d (%s) reads undefined net %q (variable %d) — tiles out of cascade order?", ti, t.Name, net, vi)
			}
		}
		for _, net := range t.Outputs {
			if net == "" {
				return fmt.Errorf("partition: tile %d (%s) defines an unnamed net", ti, t.Name)
			}
			if defined[net] {
				return fmt.Errorf("partition: net %q has more than one driver", net)
			}
			defined[net] = true
		}
	}
	if len(p.Outputs) == 0 {
		return fmt.Errorf("partition: plan has no outputs")
	}
	for i, o := range p.Outputs {
		if !defined[o.Net] {
			return fmt.Errorf("partition: output %d (%s) reads undefined net %q", i, o.Name, o.Net)
		}
	}
	return nil
}

// Eval simulates the cascade on one input vector (one bool per primary
// input, in declaration order) and returns one bool per primary output.
// Tile evaluation is checked (EvalChecked), so wire-decoded plans cannot
// panic on malformed designs.
func (p *Plan) Eval(inputs []bool) ([]bool, error) {
	if len(inputs) != len(p.Inputs) {
		return nil, fmt.Errorf("partition: Eval got %d inputs, want %d", len(inputs), len(p.Inputs))
	}
	nets := make(map[string]bool, len(p.Inputs)+2*len(p.Tiles))
	for i, name := range p.Inputs {
		nets[name] = inputs[i]
	}
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		assignment := make([]bool, len(t.Inputs))
		for vi, net := range t.Inputs {
			v, ok := nets[net]
			if !ok {
				return nil, fmt.Errorf("partition: tile %d (%s) reads undriven net %q", ti, t.Name, net)
			}
			assignment[vi] = v
		}
		outs, err := t.Design.EvalChecked(assignment)
		if err != nil {
			return nil, fmt.Errorf("partition: tile %d (%s): %w", ti, t.Name, err)
		}
		for oi, net := range t.Outputs {
			nets[net] = outs[oi]
		}
	}
	res := make([]bool, len(p.Outputs))
	for i, o := range p.Outputs {
		v, ok := nets[o.Net]
		if !ok {
			return nil, fmt.Errorf("partition: output %s reads undriven net %q", o.Name, o.Net)
		}
		res[i] = v
	}
	return res, nil
}

// Verify checks the cascade against a reference evaluator over all 2^n
// assignments when the input count is at most exhaustiveLimit (clamped to
// xbar.MaxExhaustiveBits — wider requests fall back to sampling instead
// of overflowing the enumeration), or over `samples` seeded pseudo-random
// vectors otherwise (same discipline as xbar.Design.VerifyAgainst). It
// returns the first mismatching assignment as the error's witness, or nil
// if none is found. The cascade side runs 64 assignments per pass via
// Eval64; use Verify64 when the reference is word-parallel too.
func (p *Plan) Verify(ref func([]bool) []bool, exhaustiveLimit, samples int, seed uint64) error {
	return p.verify(ref, nil, exhaustiveLimit, samples, seed)
}

// FormalVerify proves, for every one of the 2^n input assignments, that
// the cascade computes exactly the same functions as the network, by
// symbolic composition: every tile's sneak-path closure is run in one
// shared BDD manager over the primary inputs, with each literal
// substituted by the BDD function of the net driving it. The composed
// output functions are compared (by canonical-node identity) against the
// network's own BDDs. nodeLimit bounds the verifier's BDD (0 = 4M);
// cascades whose closure blows past it return bdd.ErrNodeLimit.
func (p *Plan) FormalVerify(nw *logic.Network, nodeLimit int) (err error) {
	if nodeLimit <= 0 {
		nodeLimit = 4_000_000
	}
	if got, want := len(p.Inputs), nw.NumInputs(); got != want {
		return fmt.Errorf("partition: plan has %d inputs, network %d", got, want)
	}
	if got, want := len(p.Outputs), nw.NumOutputs(); got != want {
		return fmt.Errorf("partition: plan has %d outputs, network %d", got, want)
	}
	m := bdd.New(p.Inputs)
	m.SetNodeLimit(nodeLimit)
	defer func() {
		if r := recover(); r != nil {
			err = bdd.BoundaryError(r)
		}
	}()

	// nets maps every available net to its function over primary inputs.
	nets := make(map[string]bdd.Node, len(p.Inputs)+2*len(p.Tiles))
	for i, name := range p.Inputs {
		nets[name] = m.Var(i)
	}
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		outs, terr := symbolicCascadeOutputs(m, t, nets)
		if terr != nil {
			return fmt.Errorf("partition: tile %d (%s): %w", ti, t.Name, terr)
		}
		for oi, net := range t.Outputs {
			nets[net] = outs[oi]
		}
	}
	refOuts, terr := m.BuildRoots(nw, nil)
	if terr != nil {
		return terr
	}
	for o, ref := range refOuts {
		f, ok := nets[p.Outputs[o].Net]
		if !ok {
			return fmt.Errorf("partition: output %s reads undriven net %q", p.Outputs[o].Name, p.Outputs[o].Net)
		}
		if f == ref {
			continue
		}
		witness := m.AnySat(m.Xor(f, ref))
		return fmt.Errorf("partition: output %q differs from the network, e.g. on input %v",
			nw.OutputNames[o], witness[:nw.NumInputs()])
	}
	return nil
}

// symbolicCascadeOutputs runs one tile's symbolic sneak-path fixpoint in
// the shared manager m, with literal cells substituted by the net
// functions feeding the tile — the composition step that makes the whole
// cascade's functions canonical BDDs over the primary inputs.
func symbolicCascadeOutputs(m *bdd.Manager, t *Tile, nets map[string]bdd.Node) ([]bdd.Node, error) {
	d := t.Design
	// fns[v] is the function driving design variable v.
	fns := make([]bdd.Node, len(t.Inputs))
	for vi, net := range t.Inputs {
		f, ok := nets[net]
		if !ok {
			return nil, fmt.Errorf("reads undriven net %q", net)
		}
		fns[vi] = f
	}
	lit := func(e xbar.Entry) bdd.Node {
		switch e.Kind {
		case xbar.On:
			return bdd.One
		case xbar.Lit:
			f := fns[e.Var]
			if e.Neg {
				return m.Not(f)
			}
			return f
		}
		return bdd.Zero
	}
	nWires := d.Rows + d.Cols
	conn := make([]bdd.Node, nWires)
	for i := range conn {
		conn[i] = bdd.Zero
	}
	conn[d.InputRow] = bdd.One
	for {
		changed := false
		for _, cell := range d.Cells() {
			l := lit(cell.Entry)
			r, c := cell.Row, d.Rows+cell.Col
			if nr := m.Or(conn[r], m.And(l, conn[c])); nr != conn[r] {
				conn[r] = nr
				changed = true
			}
			if nc := m.Or(conn[c], m.And(l, conn[r])); nc != conn[c] {
				conn[c] = nc
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	outs := make([]bdd.Node, len(d.OutputRows))
	for i, r := range d.OutputRows {
		outs[i] = conn[r]
	}
	return outs, nil
}

// Digest returns a stable content hash of the plan in "sha256:<hex>"
// form: the canonical wire encoding hashed. Two plans with identical
// structure, designs and placements share a digest — the caching identity
// of a synthesis outcome.
func (p *Plan) Digest() string {
	data, err := p.MarshalJSON()
	if err != nil {
		// Marshaling an in-memory plan only fails on a nil tile design,
		// which Validate rejects; degrade to a digest over the error text
		// so the method stays total.
		sum := sha256.Sum256([]byte("plan-error|" + err.Error()))
		return fmt.Sprintf("sha256:%x", sum)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("sha256:%x", sum)
}

// TileNames returns the tile names in cascade order (a convenience for
// reporting).
func (p *Plan) TileNames() []string {
	names := make([]string, len(p.Tiles))
	for i := range p.Tiles {
		names[i] = p.Tiles[i].Name
	}
	return names
}
