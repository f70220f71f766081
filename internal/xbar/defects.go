package xbar

import (
	"fmt"

	"compact/internal/defect"
)

// Defect-aware evaluation
//
// A defect.Map describes the physical array a logical design is placed
// onto: stuck-ON devices always conduct, stuck-OFF devices never do. A
// Placement (see place.go) chooses which physical wordline/bitline each
// logical row/column occupies; physical lines left unused are assumed
// electrically disconnected (floating spares), so faults on them cannot
// create sneak paths. Under those semantics the placed crossbar computes
// exactly the function of the logical design with each defective crossing
// overridden by its stuck behavior — which is what UnderDefects
// materializes, making every existing evaluator (Eval, VerifyAgainst,
// FormalVerify) defect-aware for free.

// resolvePerms validates pl against d and dm and returns the effective
// row/column permutations (identity when pl is nil).
func resolvePerms(d *Design, dm *defect.Map, pl *Placement) (rowPerm, colPerm []int, err error) {
	physRows, physCols := dm.Rows(), dm.Cols()
	if dm == nil {
		physRows, physCols = d.Rows, d.Cols
	}
	if pl == nil {
		if physRows < d.Rows || physCols < d.Cols {
			return nil, nil, fmt.Errorf("xbar: %dx%d design does not fit the %dx%d physical array", d.Rows, d.Cols, physRows, physCols)
		}
		rowPerm = make([]int, d.Rows)
		colPerm = make([]int, d.Cols)
		for i := range rowPerm {
			rowPerm[i] = i
		}
		for i := range colPerm {
			colPerm[i] = i
		}
		return rowPerm, colPerm, nil
	}
	if len(pl.RowPerm) != d.Rows || len(pl.ColPerm) != d.Cols {
		return nil, nil, fmt.Errorf("xbar: placement shape %dx%d does not match the %dx%d design",
			len(pl.RowPerm), len(pl.ColPerm), d.Rows, d.Cols)
	}
	if err := checkInjective(pl.RowPerm, physRows, "row"); err != nil {
		return nil, nil, err
	}
	if err := checkInjective(pl.ColPerm, physCols, "column"); err != nil {
		return nil, nil, err
	}
	return pl.RowPerm, pl.ColPerm, nil
}

// checkInjective verifies that perm maps injectively into 0..bound-1.
func checkInjective(perm []int, bound int, what string) error {
	seen := make(map[int]bool, len(perm))
	for i, p := range perm {
		if p < 0 || p >= bound {
			return fmt.Errorf("xbar: %s placement maps %d to %d, outside 0..%d", what, i, p, bound-1)
		}
		if seen[p] {
			return fmt.Errorf("xbar: %s placement maps two lines to physical %s %d", what, what, p)
		}
		seen[p] = true
	}
	return nil
}

// UnderDefects returns the effective design the physical array computes:
// the logical design, placed by pl (identity when nil) onto the array
// described by dm, with every cell that lands on a stuck device overridden
// by the stuck behavior (stuck-ON → On, stuck-OFF → Off). Faults on
// physical lines the placement leaves unused are ignored — unused spares
// are disconnected. The result is a deep copy; the receiver is unchanged.
func (d *Design) UnderDefects(dm *defect.Map, pl *Placement) (*Design, error) {
	rowPerm, colPerm, err := resolvePerms(d, dm, pl)
	if err != nil {
		return nil, err
	}
	if dm.Len() == 0 {
		return d.withCells(d.cells)
	}
	// Stuck-ON turns a programmed cell On, stuck-OFF removes it; a stuck-ON
	// device on an unprogrammed crossing adds an On cell.
	cells := make([]Cell, 0, len(d.cells))
	for _, c := range d.cells {
		k, stuck := dm.At(rowPerm[c.Row], colPerm[c.Col])
		switch {
		case !stuck:
			cells = append(cells, c)
		case k == defect.StuckOn:
			cells = append(cells, Cell{Row: c.Row, Col: c.Col, Entry: Entry{Kind: On}})
		}
	}
	invRow := inversePerm(rowPerm, dm.Rows())
	invCol := inversePerm(colPerm, dm.Cols())
	for _, fc := range dm.Cells() {
		r, c := invRow[fc.Row], invCol[fc.Col]
		if fc.Kind == defect.StuckOn && r >= 0 && c >= 0 && d.At(r, c).Kind == Off {
			cells = append(cells, Cell{Row: r, Col: c, Entry: Entry{Kind: On}})
		}
	}
	return d.withCells(cells)
}

// inversePerm maps physical line -> logical line (-1 where unused).
func inversePerm(perm []int, bound int) []int {
	inv := make([]int, bound)
	for i := range inv {
		inv[i] = -1
	}
	for logical, physical := range perm {
		inv[physical] = logical
	}
	return inv
}

// EvalDefects evaluates the design under a defect map and placement: the
// outputs the physical array actually produces for the assignment. It
// materializes the effective design on every call — callers evaluating
// many assignments should build it once with UnderDefects.
func (d *Design) EvalDefects(assignment []bool, dm *defect.Map, pl *Placement) ([]bool, error) {
	eff, err := d.UnderDefects(dm, pl)
	if err != nil {
		return nil, err
	}
	return eff.EvalChecked(assignment)
}

// ProgramDefects computes the programming plan for an assignment on a
// defective array: RowPatterns reflects the conductance state each device
// actually takes (stuck devices keep their stuck state regardless of the
// intended program), and Switched counts state changes on programmable
// devices only — stuck devices cannot switch, so they never cost write
// energy. prev follows the same convention as Program.
func (d *Design) ProgramDefects(assignment []bool, dm *defect.Map, pl *Placement, prev *Programming) (*Programming, error) {
	eff, err := d.UnderDefects(dm, pl)
	if err != nil {
		return nil, err
	}
	rowPerm, colPerm, err := resolvePerms(d, dm, pl)
	if err != nil {
		return nil, err
	}
	p := &Programming{
		RowPatterns: make([][]bool, d.Rows),
		Steps:       d.Rows + 1,
	}
	for r := range p.RowPatterns {
		p.RowPatterns[r] = make([]bool, d.Cols)
	}
	for _, c := range eff.cells {
		on := c.Conducts(assignment)
		p.RowPatterns[c.Row][c.Col] = on
		if _, stuck := dm.At(rowPerm[c.Row], colPerm[c.Col]); stuck {
			continue // stuck devices hold their state for free
		}
		if prev == nil {
			if on {
				p.Switched++
			}
		} else if prev.RowPatterns[c.Row][c.Col] != on {
			p.Switched++
		}
	}
	return p, nil
}
