// Package xbar represents flow-based-computing crossbar designs and
// implements COMPACT's crossbar mapping step: binding a VH-labeled BDD
// graph to wordlines, bitlines and memristors, then evaluating the design
// by sneak-path reachability.
//
// A Design lists the programmed memristors of a wordline x bitline grid;
// every other crossing is Off. Each memristor is programmed per evaluation
// to conduct iff its assigned literal is true (Off cells never conduct, On
// cells always conduct). Applying Vin to the input wordline, an output
// reads 1 iff a conducting path reaches its output wordline — computed
// here with union-find over nanowires.
package xbar

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"compact/internal/errio"
	"compact/internal/invariant"
)

// EntryKind classifies a crossbar cell.
type EntryKind uint8

// Cell kinds.
const (
	Off EntryKind = iota // always high resistance ('0')
	On                   // always low resistance ('1')
	Lit                  // programmed from a Boolean literal
)

// Entry is one memristor assignment. It is 8 bytes; a Design stores one
// per programmed crossing (see Cell), never one per crossing.
type Entry struct {
	Kind EntryKind
	Neg  bool  // negated literal
	Var  int32 // variable index for Lit cells
}

// String renders the entry as in the paper's figures: 0, 1, a, ¬a.
func (e Entry) String() string { return e.label(nil) }

func (e Entry) label(names []string) string {
	switch e.Kind {
	case Off:
		return "0"
	case On:
		return "1"
	default:
		name := fmt.Sprintf("x%d", e.Var)
		if names != nil && int(e.Var) < len(names) {
			name = names[e.Var]
		}
		if e.Neg {
			return "!" + name
		}
		return name
	}
}

// Cell is one programmed crossing: the device at wordline Row, bitline Col.
type Cell struct {
	Row, Col int
	Entry
}

// Design is a complete crossbar representation of a Boolean function.
//
// A mapped design programs about one device per BDD edge, a vanishing
// fraction of its Rows x Cols crossings (arbiter: 29,308 of 109.5M), so
// only the programmed cells are stored: a row-major list plus CSR row
// offsets. Every crossing not listed is Off. NewDesign is the only way to
// set the cells; it validates them, so a Design's cells are always in
// range, unique, On or Lit, and reference non-negative variables.
type Design struct {
	// Rows and Cols are the wordline and bitline counts; row 0 is the
	// top-most wordline, row Rows-1 the bottom-most (the input wordline,
	// per the paper's alignment convention).
	Rows, Cols int
	// InputRow is the wordline driven with Vin.
	InputRow int
	// OutputRows holds one wordline per function output (entries may
	// repeat when outputs share a BDD root).
	OutputRows  []int
	OutputNames []string
	// VarNames names the literal variables (indexed by Entry.Var).
	VarNames []string

	// cells lists the programmed crossings in row-major order; row r's
	// cells are cells[rowStart[r]:rowStart[r+1]]. Both are nil for a
	// design without cells.
	cells    []Cell
	rowStart []int32
	// nVars is one past the largest Lit variable index (0 without Lit cells).
	nVars int
}

// NewDesign builds a rows x cols crossbar whose programmed crossings are
// cells (in any order); every other crossing is Off. cells is neither
// retained nor modified. Cells outside the grid, duplicate crossings, Off
// or unknown kinds and negative variable indices are rejected.
func NewDesign(rows, cols int, cells []Cell) (*Design, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("xbar: negative design dimensions %dx%d", rows, cols)
	}
	if len(cells) > math.MaxInt32 {
		return nil, fmt.Errorf("xbar: %d cells exceed the row-offset range", len(cells))
	}
	d := &Design{Rows: rows, Cols: cols}
	if len(cells) == 0 {
		return d, nil
	}
	for _, c := range cells {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= cols {
			return nil, fmt.Errorf("xbar: cell (%d,%d) outside %dx%d", c.Row, c.Col, rows, cols)
		}
		switch c.Kind {
		case On:
		case Lit:
			if c.Var < 0 {
				return nil, invariant.Violationf("xbar.cell-var",
					"cell (%d,%d) references negative variable %d", c.Row, c.Col, c.Var)
			}
			d.nVars = max(d.nVars, int(c.Var)+1)
		default:
			return nil, invariant.Violationf("xbar.cell-kind",
				"cell (%d,%d) has kind %d; only On and Lit cells are listed", c.Row, c.Col, c.Kind)
		}
	}
	// Counting sort by row: rowStart[r] first counts row r's cells, then
	// (as a prefix sum) marks the end of row r; placing the cells back to
	// front walks it down to the start of row r.
	d.rowStart = make([]int32, rows+1)
	for _, c := range cells {
		d.rowStart[c.Row]++
	}
	for r := 1; r <= rows; r++ {
		d.rowStart[r] += d.rowStart[r-1]
	}
	d.cells = make([]Cell, len(cells))
	for i := len(cells) - 1; i >= 0; i-- {
		r := cells[i].Row
		d.rowStart[r]--
		d.cells[d.rowStart[r]] = cells[i]
	}
	for r := 0; r < rows; r++ {
		row := d.row(r)
		slices.SortFunc(row, func(a, b Cell) int { return a.Col - b.Col })
		for i := 1; i < len(row); i++ {
			if row[i].Col == row[i-1].Col {
				return nil, fmt.Errorf("xbar: duplicate cell at (%d,%d)", r, row[i].Col)
			}
		}
	}
	return d, nil
}

// Cells returns the programmed crossings in row-major order. The slice is
// the design's own storage and must not be modified.
func (d *Design) Cells() []Cell { return d.cells }

// At returns the entry at crossing (r, c): the programmed cell there, or
// Off. Coordinates outside the grid read as Off.
func (d *Design) At(r, c int) Entry {
	if r < 0 || r >= d.Rows {
		return Entry{}
	}
	row := d.row(r)
	if i, ok := slices.BinarySearchFunc(row, c, func(x Cell, c int) int { return x.Col - c }); ok {
		return row[i].Entry
	}
	return Entry{}
}

// row returns row r's programmed cells, ordered by column.
func (d *Design) row(r int) []Cell {
	if d.rowStart == nil {
		return nil
	}
	return d.cells[d.rowStart[r]:d.rowStart[r+1]]
}

// NumVars returns the number of assignment entries the design requires:
// enough to cover every literal cell and every named variable. Eval
// assignments must be at least this long.
func (d *Design) NumVars() int {
	return max(d.nVars, len(d.VarNames))
}

// withCells returns a design with d's ports and names and the given cells.
func (d *Design) withCells(cells []Cell) (*Design, error) {
	nd, err := NewDesign(d.Rows, d.Cols, cells)
	if err != nil {
		return nil, err
	}
	nd.InputRow = d.InputRow
	nd.OutputRows = append([]int(nil), d.OutputRows...)
	nd.OutputNames = append([]string(nil), d.OutputNames...)
	nd.VarNames = append([]string(nil), d.VarNames...)
	return nd, nil
}

// Stats summarizes hardware utilization and the paper's cost models.
type Stats struct {
	Rows, Cols int
	S          int // semiperimeter = rows + cols
	D          int // max dimension
	Area       int // rows * cols
	LitCells   int // memristors programmed per evaluation (power model)
	OnCells    int // statically-on memristors (VH stitches etc.)
	// Power is the paper's Section VIII power proxy: the number of
	// memristors programmed from literals per evaluation.
	Power int
	// Delay is the paper's computation-delay proxy: one time step per
	// wordline to program the devices plus one to evaluate.
	Delay int
}

// Stats computes the design's summary statistics.
func (d *Design) Stats() Stats {
	st := Stats{Rows: d.Rows, Cols: d.Cols}
	st.S = d.Rows + d.Cols
	st.D = d.Rows
	if d.Cols > st.D {
		st.D = d.Cols
	}
	st.Area = d.Rows * d.Cols
	for _, c := range d.cells {
		if c.Kind == Lit {
			st.LitCells++
		} else {
			st.OnCells++
		}
	}
	st.Power = st.LitCells
	st.Delay = d.Rows + 1
	return st
}

// Render writes a human-readable matrix view, as in the paper's Figure 2.
func (d *Design) Render(w io.Writer) error {
	width := 1
	for _, c := range d.cells {
		width = max(width, len(c.label(d.VarNames)))
	}
	outOf := make(map[int][]string)
	for i, r := range d.OutputRows {
		name := fmt.Sprintf("f%d", i)
		if i < len(d.OutputNames) {
			name = d.OutputNames[i]
		}
		outOf[r] = append(outOf[r], name)
	}
	ew := errio.NewWriter(w)
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			ew.Printf("%*s ", width, d.At(r, c).label(d.VarNames))
		}
		var marks []string
		if r == d.InputRow {
			marks = append(marks, "<- Vin")
		}
		if names := outOf[r]; len(names) > 0 {
			marks = append(marks, "-> "+strings.Join(names, ","))
		}
		if len(marks) > 0 {
			ew.Printf(" %s", strings.Join(marks, " "))
		}
		ew.Println()
	}
	return ew.Err()
}

// Conducts reports whether cell e conducts under the assignment (indexed
// by Entry.Var). A literal the assignment does not cover (including a
// negative index) and an unknown Kind never conduct — the defensive
// backstop for corrupted entries; NewDesign rejects both, and EvalChecked
// reports a short assignment as a structured *invariant.Error instead of
// relying on it.
func (e Entry) Conducts(assignment []bool) bool {
	switch e.Kind {
	case On:
		return true
	case Lit:
		if int(e.Var) >= len(assignment) || e.Var < 0 {
			return false
		}
		return assignment[e.Var] != e.Neg
	default:
		return false
	}
}

// Eval evaluates all outputs under the assignment by union-find
// connectivity over nanowires (rows 0..Rows-1, then cols). The assignment
// must cover every literal the design references (len >= NumVars());
// violating that precondition panics with the structured invariant error
// EvalChecked would return — callers evaluating designs decoded from
// untrusted wire data must use EvalChecked.
func (d *Design) Eval(assignment []bool) []bool {
	out, err := d.EvalChecked(assignment)
	if err != nil {
		//lint:ignore panicfree documented Eval precondition on programmer-supplied assignments; EvalChecked is the error-returning form for wire-decoded designs
		panic(err)
	}
	return out
}

// EvalChecked is Eval with the assignment-length precondition checked once
// up front: an assignment shorter than the largest literal index returns
// an *invariant.Error instead of an index-out-of-range panic.
func (d *Design) EvalChecked(assignment []bool) ([]bool, error) {
	if empty, err := d.checkEval(len(assignment)); err != nil {
		return nil, err
	} else if empty {
		return []bool{}, nil
	}
	parent := make([]int, d.Rows+d.Cols)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, c := range d.cells {
		if c.Conducts(assignment) {
			union(c.Row, d.Rows+c.Col)
		}
	}
	in := find(d.InputRow)
	out := make([]bool, len(d.OutputRows))
	for i, r := range d.OutputRows {
		out[i] = find(r) == in
	}
	return out, nil
}

// checkEval validates the evaluation preconditions shared by EvalChecked
// and Eval64Checked for an assignment of nAssign variables. empty reports
// a design with no rows and no outputs: nothing to read, nothing to drive.
func (d *Design) checkEval(nAssign int) (empty bool, err error) {
	if d.nVars > nAssign {
		return false, invariant.Violationf("xbar.eval-assignment",
			"assignment has %d entries but the design references variable %d", nAssign, d.nVars-1)
	}
	if len(d.OutputRows) == 0 && d.Rows == 0 {
		return true, nil
	}
	if d.InputRow < 0 || d.InputRow >= d.Rows {
		return false, invariant.Violationf("xbar.eval-input-row",
			"input row %d outside 0..%d", d.InputRow, d.Rows-1)
	}
	for i, r := range d.OutputRows {
		if r < 0 || r >= d.Rows {
			return false, invariant.Violationf("xbar.eval-output-row",
				"output row %d (#%d) outside 0..%d", r, i, d.Rows-1)
		}
	}
	return false, nil
}
