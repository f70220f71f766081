// Package staircase implements the prior-art flow-based mapping that
// COMPACT is compared against (reference [16] of the paper): every BDD node
// is bound to both a wordline and a bitline, producing the inductive
// staircase structure that spans from the bottom-left to the top-right
// corner of the crossbar. The semiperimeter is therefore close to 2n
// (the paper measures ≈1.90n for [16]; the difference is that root nodes,
// having no incoming edges, need no bitline — an optimization applied here
// too). The mapping runs in time linear in the BDD size, matching the
// scalability the paper reports for [16].
package staircase

import (
	"fmt"

	"compact/internal/xbar"
)

// Map binds the BDD graph to a staircase crossbar design. Unlike COMPACT's
// labeling-driven mapping, no optimization problem is solved: node i simply
// receives wordline i and (when some edge enters it) bitline i, with a
// statically-on memristor stitching the two.
func Map(bg *xbar.BDDGraph) (*xbar.Design, error) {
	n := bg.G.N()
	// Direction of each edge: the parent is the endpoint closer to the
	// roots (smaller level); the 1-terminal (level -1) is always a child.
	depth := func(v int) int {
		if v == bg.TerminalID {
			return int(^uint(0) >> 1) // deepest
		}
		return bg.Level[v]
	}
	hasParent := make([]bool, n)
	type dirEdge struct{ parent, child int }
	edges := make([]dirEdge, 0, bg.G.M())
	for _, e := range bg.G.Edges() {
		u, v := e[0], e[1]
		if depth(u) > depth(v) {
			u, v = v, u
		}
		if depth(u) == depth(v) {
			return nil, fmt.Errorf("staircase: edge (%d,%d) joins equal levels", e[0], e[1])
		}
		edges = append(edges, dirEdge{parent: u, child: v})
		hasParent[v] = true
	}

	// Row order: const-0 row (if needed), root rows in output order, other
	// nodes by ascending level, terminal at the bottom (input port).
	rowOf := make([]int, n)
	for i := range rowOf {
		rowOf[i] = -1
	}
	nextRow := 0
	needConst0 := false
	for _, r := range bg.Roots {
		if r.Kind == xbar.RootConst0 {
			needConst0 = true
		}
	}
	const0Row := -1
	if needConst0 {
		const0Row = nextRow
		nextRow++
	}
	for _, r := range bg.Roots {
		if r.Kind == xbar.RootNode && r.NodeID != bg.TerminalID && rowOf[r.NodeID] < 0 {
			rowOf[r.NodeID] = nextRow
			nextRow++
		}
	}
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if v != bg.TerminalID && rowOf[v] < 0 {
			order = append(order, v)
		}
	}
	// Stable sort by level (ascending): roots near the top, deep nodes low.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && bg.Level[order[j]] < bg.Level[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, v := range order {
		rowOf[v] = nextRow
		nextRow++
	}
	rowOf[bg.TerminalID] = nextRow
	nextRow++

	colOf := make([]int, n)
	nextCol := 0
	for i := range colOf {
		colOf[i] = -1
	}
	// Columns in the same visual order as rows, skipping parentless nodes.
	byRow := make([]int, nextRow)
	for i := range byRow {
		byRow[i] = -1
	}
	for v := 0; v < n; v++ {
		byRow[rowOf[v]] = v
	}
	for _, v := range byRow {
		if v >= 0 && hasParent[v] {
			colOf[v] = nextCol
			nextCol++
		}
	}
	if nextCol == 0 {
		nextCol = 1
	}

	// Stitch every node that owns both a wordline and a bitline; each
	// directed edge parent->child maps to (row(parent), col(child)).
	// NewDesign rejects a crossing assigned twice.
	cells := make([]xbar.Cell, 0, n+len(edges))
	for v := 0; v < n; v++ {
		if colOf[v] >= 0 {
			cells = append(cells, xbar.Cell{Row: rowOf[v], Col: colOf[v], Entry: xbar.Entry{Kind: xbar.On}})
		}
	}
	for _, e := range edges {
		c := colOf[e.child]
		if c < 0 {
			return nil, fmt.Errorf("staircase: child %d has no bitline", e.child)
		}
		cells = append(cells, xbar.Cell{Row: rowOf[e.parent], Col: c, Entry: bg.EdgeLit[edgeKey(e.parent, e.child)]})
	}
	d, err := xbar.NewDesign(nextRow, nextCol, cells)
	if err != nil {
		return nil, fmt.Errorf("staircase: %w", err)
	}
	d.VarNames = bg.VarNames
	d.InputRow = rowOf[bg.TerminalID]
	for _, r := range bg.Roots {
		d.OutputNames = append(d.OutputNames, r.Name)
		switch r.Kind {
		case xbar.RootConst0:
			d.OutputRows = append(d.OutputRows, const0Row)
		case xbar.RootConst1:
			d.OutputRows = append(d.OutputRows, d.InputRow)
		default:
			d.OutputRows = append(d.OutputRows, rowOf[r.NodeID])
		}
	}
	return d, nil
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
