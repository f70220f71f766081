package xbar3d

import (
	"fmt"

	"compact/internal/invariant"
	"compact/internal/labeling"
	"compact/internal/xbar"
)

// Map3D performs the K-layer crossbar mapping step: nodes are bound to
// per-layer nanowires according to their layer intervals, multi-layer
// nodes get always-ON via stitches joining their wires on consecutive
// layers, and every graph edge becomes a memristor on the lowest device
// plane where its endpoints sit on adjacent layers.
//
// The per-layer wire order generalizes xbar.Map's row/column convention so
// a K=2 mapping is cell-for-cell the 2D design (the equivalence suite in
// internal/core pins this): on each even (wordline) layer the order is a
// const-0 wire (layer 0 only, when a constant-false output exists), then
// output roots whose lowest even layer is this one in output order, then
// the remaining occupants in node order, with the 1-terminal (input port)
// last on its lowest even layer; odd (bitline) layers order occupants by
// node id. Zero-width layers are padded to one wire, mirroring the 2D
// degenerate-bitline padding.
func Map3D(bg *xbar.BDDGraph, sol *labeling.KSolution) (*Design3D, error) {
	k, lo, hi := sol.K, sol.Lo, sol.Hi
	if err := labeling.ValidateK(bg.Problem(false), k, lo, hi); err != nil {
		return nil, fmt.Errorf("xbar3d: %w", err)
	}
	n := bg.G.N()
	lowestEven := func(v int) int {
		for l := lo[v]; l <= hi[v]; l++ {
			if l%2 == 0 {
				return l
			}
		}
		return -1
	}
	for _, r := range bg.Roots {
		if r.Kind == xbar.RootNode && lowestEven(r.NodeID) < 0 {
			return nil, fmt.Errorf("xbar3d: output %q root occupies no wordline layer (interval [%d,%d]); outputs must reach an even layer",
				r.Name, lo[r.NodeID], hi[r.NodeID])
		}
	}
	if lowestEven(bg.TerminalID) < 0 {
		return nil, fmt.Errorf("xbar3d: 1-terminal occupies no wordline layer (interval [%d,%d]); the input port must reach an even layer",
			lo[bg.TerminalID], hi[bg.TerminalID])
	}

	// idx[l][v] is node v's wire index on layer l (-1 when absent).
	idx := make([][]int, k)
	widths := make([]int, k)
	for l := range idx {
		idx[l] = make([]int, n)
		for v := range idx[l] {
			idx[l][v] = -1
		}
	}
	needConst0 := false
	for _, r := range bg.Roots {
		if r.Kind == xbar.RootConst0 {
			needConst0 = true
		}
	}
	const0Index := -1
	inputLayer := lowestEven(bg.TerminalID)
	for l := 0; l < k; l++ {
		next := 0
		if l%2 == 0 {
			if l == 0 && needConst0 {
				const0Index = next
				next++
			}
			for _, r := range bg.Roots {
				if r.Kind == xbar.RootNode && r.NodeID != bg.TerminalID &&
					lowestEven(r.NodeID) == l && idx[l][r.NodeID] < 0 {
					idx[l][r.NodeID] = next
					next++
				}
			}
			for v := 0; v < n; v++ {
				if v == bg.TerminalID && l == inputLayer {
					continue // the input port is bound last on its layer
				}
				if idx[l][v] < 0 && labeling.Occupies(lo[v], hi[v], l) {
					idx[l][v] = next
					next++
				}
			}
			if l == inputLayer {
				idx[l][bg.TerminalID] = next
				next++
			}
		} else {
			for v := 0; v < n; v++ {
				if labeling.Occupies(lo[v], hi[v], l) {
					idx[l][v] = next
					next++
				}
			}
		}
		if next == 0 {
			next = 1 // degenerate empty layer: pad so the stack stays well-formed
		}
		widths[l] = next
	}

	d, err := NewDesign3D(widths)
	if err != nil {
		return nil, err
	}
	d.VarNames = bg.VarNames
	d.Input = WireRef{Layer: inputLayer, Index: idx[inputLayer][bg.TerminalID]}
	for _, r := range bg.Roots {
		d.OutputNames = append(d.OutputNames, r.Name)
		switch r.Kind {
		case xbar.RootConst0:
			d.Outputs = append(d.Outputs, WireRef{Layer: 0, Index: const0Index})
		case xbar.RootConst1:
			d.Outputs = append(d.Outputs, d.Input)
		default:
			l := lowestEven(r.NodeID)
			d.Outputs = append(d.Outputs, WireRef{Layer: l, Index: idx[l][r.NodeID]})
		}
	}

	// Via stitches: a node spanning layers l and l+1 joins its two wires
	// with a statically-ON device on plane l.
	stitches := 0
	for v := 0; v < n; v++ {
		for l := lo[v]; l < hi[v]; l++ {
			d.Cells[l][idx[l][v]][idx[l+1][v]] = xbar.Entry{Kind: xbar.On}
			stitches++
		}
	}
	// Edge assignment: lowest device plane first, preferring the
	// (e[0]@d, e[1]@d+1) orientation — at K=2 this is exactly xbar.Map's
	// "u on the wordline, v on the bitline" preference.
	for _, e := range bg.G.Edges() {
		u, v := e[0], e[1]
		lit := bg.EdgeLit[edgeKey(u, v)]
		placed := false
		for dl := 0; dl < k-1 && !placed; dl++ {
			var r, c int
			switch {
			case idx[dl][u] >= 0 && idx[dl+1][v] >= 0:
				r, c = idx[dl][u], idx[dl+1][v]
			case idx[dl][v] >= 0 && idx[dl+1][u] >= 0:
				r, c = idx[dl][v], idx[dl+1][u]
			default:
				continue
			}
			if d.Cells[dl][r][c].Kind != xbar.Off {
				return nil, fmt.Errorf("xbar3d: cell (%d,%d,%d) assigned twice", dl, r, c)
			}
			d.Cells[dl][r][c] = lit
			placed = true
		}
		if !placed {
			return nil, fmt.Errorf("xbar3d: edge (%d,%d) has no free adjacent-layer crossing", u, v)
		}
	}
	// Postcondition: exactly one device per edge plus one stitch per
	// spanned layer pair landed on the planes.
	programmed := 0
	for _, plane := range d.Cells {
		for _, row := range plane {
			for _, e := range row {
				if e.Kind != xbar.Off {
					programmed++
				}
			}
		}
	}
	if programmed != bg.G.M()+stitches {
		return nil, invariant.Violationf("xbar3d.mapped-cells",
			"%d programmed cells for %d edges and %d stitches", programmed, bg.G.M(), stitches)
	}
	return d, nil
}

// edgeKey normalizes an undirected edge for EdgeLit lookup (u < v), the
// same convention as xbar's unexported helper.
func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// Lift3D embeds a 2D design as the equivalent 2-layer Design3D: layer 0
// carries the wordlines (rows), layer 1 the bitlines (cols), and device
// plane 0 is the 2D cell matrix verbatim. The lifted design evaluates
// identically; the K=2 equivalence suite compares Map3D output against it
// cell for cell.
func Lift3D(src *xbar.Design) (*Design3D, error) {
	cols := src.Cols
	if cols == 0 {
		cols = 1
	}
	d, err := NewDesign3D([]int{src.Rows, cols})
	if err != nil {
		return nil, err
	}
	for _, c := range src.Cells() {
		d.Cells[0][c.Row][c.Col] = c.Entry
	}
	d.Input = WireRef{Layer: 0, Index: src.InputRow}
	for _, r := range src.OutputRows {
		d.Outputs = append(d.Outputs, WireRef{Layer: 0, Index: r})
	}
	d.OutputNames = append([]string(nil), src.OutputNames...)
	d.VarNames = append([]string(nil), src.VarNames...)
	return d, nil
}
