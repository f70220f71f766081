package xbar

import (
	"fmt"
	"math"

	"compact/internal/bdd"
	"compact/internal/graph"
)

// RemapVars rewrites every literal cell's variable index through remap and
// replaces the design's variable names, converting e.g. BDD-level indexing
// into network-input indexing. remap must cover every Var in use and map
// it to a non-negative index; otherwise the design is left unchanged.
func (d *Design) RemapVars(remap []int, names []string) error {
	for _, c := range d.cells {
		if c.Kind != Lit {
			continue
		}
		if c.Var < 0 || int(c.Var) >= len(remap) {
			return fmt.Errorf("xbar: cell (%d,%d) variable %d outside remap", c.Row, c.Col, c.Var)
		}
		if v := remap[c.Var]; v < 0 || v > math.MaxInt32 {
			return fmt.Errorf("xbar: cell (%d,%d) variable %d remaps to %d", c.Row, c.Col, c.Var, v)
		}
	}
	d.nVars = 0
	for i, c := range d.cells {
		if c.Kind == Lit {
			v := remap[c.Var]
			d.cells[i].Var = int32(v)
			d.nVars = max(d.nVars, v+1)
		}
	}
	d.VarNames = names
	return nil
}

// FromSeparate builds the merged graph of several per-output ROBDDs, the
// prior-work flow the paper compares SBDDs against (Section VII-A): each
// output's BDD contributes its own nodes, and all BDDs share exactly one
// node — the 1-terminal. Edge literals are resolved into the global
// variable space varNames by variable name, so the resulting designs
// evaluate directly on network-input-order assignments.
func FromSeparate(singles []bdd.Single, varNames []string) (*BDDGraph, error) {
	index := make(map[string]int, len(varNames))
	for i, n := range varNames {
		index[n] = i
	}
	bg := &BDDGraph{
		EdgeLit:    make(map[[2]int]Entry),
		TerminalID: 0,
		VarNames:   varNames,
	}
	// Global id 0 is the shared 1-terminal.
	var levels []int
	levels = append(levels, -1)
	type pending struct {
		u, v int
		lit  Entry
	}
	var edges []pending

	for si := range singles {
		s := &singles[si]
		m := s.Manager
		gid := make(map[bdd.Node]int)
		gid[bdd.One] = 0
		for _, n := range m.Reachable(s.Root) {
			if n == bdd.Zero || n == bdd.One {
				continue
			}
			gid[n] = len(levels)
			levels = append(levels, m.Level(n))
		}
		for _, n := range m.Reachable(s.Root) {
			if n <= bdd.One {
				continue
			}
			v, ok := index[m.VarName(m.Level(n))]
			if !ok {
				return nil, fmt.Errorf("xbar: variable %q of output %q not in global space", m.VarName(m.Level(n)), s.Name)
			}
			if lo := m.Low(n); lo != bdd.Zero {
				edges = append(edges, pending{gid[n], gid[lo], Entry{Kind: Lit, Var: int32(v), Neg: true}})
			}
			if hi := m.High(n); hi != bdd.Zero {
				edges = append(edges, pending{gid[n], gid[hi], Entry{Kind: Lit, Var: int32(v), Neg: false}})
			}
		}
		switch s.Root {
		case bdd.Zero:
			bg.Roots = append(bg.Roots, Root{Kind: RootConst0, NodeID: -1, Name: s.Name})
		case bdd.One:
			bg.Roots = append(bg.Roots, Root{Kind: RootConst1, NodeID: 0, Name: s.Name})
		default:
			bg.Roots = append(bg.Roots, Root{Kind: RootNode, NodeID: gid[s.Root], Name: s.Name})
		}
	}
	bg.Level = levels
	bg.G = graph.New(len(levels))
	for _, e := range edges {
		if err := bg.G.AddEdge(e.u, e.v); err != nil {
			return nil, err
		}
		bg.EdgeLit[edgeKey(e.u, e.v)] = e.lit
	}
	return bg, nil
}
