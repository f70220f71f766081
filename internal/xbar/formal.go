package xbar

import (
	"errors"
	"fmt"

	"compact/internal/bdd"
	"compact/internal/logic"
)

// SymbolicOutputs computes the exact Boolean function each output wordline
// realizes, as canonical BDDs over the design's variables: a symbolic
// sneak-path fixpoint. conn(w) is the predicate "wire w is electrically
// connected to the input wordline under the assignment"; every programmed
// device (r, c, literal) contributes conn(r) |= literal ∧ conn(c) and
// conn(c) |= literal ∧ conn(r), iterated to the least fixpoint — the
// symbolic counterpart of the union-find evaluation, covering ALL 2^n
// assignments at once.
//
// nodeLimit bounds the BDD size (0 = default 4M); designs whose symbolic
// closure blows past it return bdd.ErrNodeLimit.
func SymbolicOutputs(d *Design, nodeLimit int) (m *bdd.Manager, outs []bdd.Node, err error) {
	if nodeLimit <= 0 {
		nodeLimit = 4_000_000
	}
	names := d.VarNames
	if names == nil {
		return nil, nil, errors.New("xbar: design has no variable names")
	}
	m = bdd.New(names)
	m.SetNodeLimit(nodeLimit)
	defer func() {
		if r := recover(); r != nil {
			m, outs, err = nil, nil, bdd.BoundaryError(r)
		}
	}()

	nWires := d.Rows + d.Cols
	conn := make([]bdd.Node, nWires)
	for i := range conn {
		conn[i] = bdd.Zero
	}
	conn[d.InputRow] = bdd.One

	lit := func(e Entry) bdd.Node {
		switch e.Kind {
		case On:
			return bdd.One
		case Lit:
			if e.Neg {
				return m.NVar(int(e.Var))
			}
			return m.Var(int(e.Var))
		}
		return bdd.Zero
	}
	for {
		changed := false
		for _, cell := range d.cells {
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
	outs = make([]bdd.Node, len(d.OutputRows))
	for i, r := range d.OutputRows {
		outs[i] = conn[r]
	}
	return m, outs, nil
}

// FormalVerify proves (for every one of the 2^n input assignments) that
// the design computes exactly the same functions as the network, by
// comparing canonical BDDs: the network's outputs and the design's
// symbolic sneak-path functions are built in one manager, where equality
// is pointer equality. The design's variables must be in network-input
// order (which core.Synthesize guarantees). On disagreement the returned
// error names the first mismatching output and a witness assignment.
func FormalVerify(d *Design, nw *logic.Network, nodeLimit int) error {
	if len(d.VarNames) != nw.NumInputs() {
		return fmt.Errorf("xbar: design has %d variables, network %d inputs", len(d.VarNames), nw.NumInputs())
	}
	m, designOuts, err := SymbolicOutputs(d, nodeLimit)
	if err != nil {
		return fmt.Errorf("xbar: symbolic closure: %w", err)
	}
	refOuts, err := m.BuildRoots(nw, nil)
	if err != nil {
		return err
	}
	if len(designOuts) != len(refOuts) {
		return fmt.Errorf("xbar: output count mismatch: %d vs %d", len(designOuts), len(refOuts))
	}
	for o := range refOuts {
		if designOuts[o] == refOuts[o] {
			continue
		}
		diff := m.Xor(designOuts[o], refOuts[o])
		witness := m.AnySat(diff)
		return fmt.Errorf("xbar: output %q differs from the network, e.g. on input %v",
			nw.OutputNames[o], witness[:nw.NumInputs()])
	}
	return nil
}
