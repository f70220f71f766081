package xbar

// Programming is the concrete device-programming plan behind the paper's
// evaluation-phase cost model (§VIII): the crossbar is written one
// wordline at a time — rows+1 time steps including the final evaluate —
// and energy follows the number of devices whose state actually switches.
type Programming struct {
	// RowPatterns[r][c] is the conductance state written to cell (r, c).
	RowPatterns [][]bool
	// Steps is the paper's delay model: one write step per wordline plus
	// one evaluation step.
	Steps int
	// Switched counts devices whose state differs from the previous
	// programming (all initially-on devices when there is none) — the
	// energy-relevant write count.
	Switched int
}

// Program computes the programming plan for an assignment. prev, when
// non-nil, is the plan already resident in the array; only devices whose
// state changes count as switched (literal cells tracking unchanged
// variables, Off cells and On stitches never switch between evaluations).
func (d *Design) Program(assignment []bool, prev *Programming) *Programming {
	p := &Programming{
		RowPatterns: make([][]bool, d.Rows),
		Steps:       d.Rows + 1,
	}
	for r := range p.RowPatterns {
		p.RowPatterns[r] = make([]bool, d.Cols)
	}
	for _, c := range d.cells {
		on := c.Conducts(assignment)
		p.RowPatterns[c.Row][c.Col] = on
		if prev == nil {
			if on {
				p.Switched++
			}
		} else if prev.RowPatterns[c.Row][c.Col] != on {
			p.Switched++
		}
	}
	return p
}

// EvalProgrammed evaluates the crossbar from an explicit programming plan
// rather than an assignment — the two must agree for plans produced by
// Program (tested), and the method doubles as a fault-injection hook.
func (d *Design) EvalProgrammed(p *Programming) []bool {
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
	for r, row := range p.RowPatterns {
		for c, on := range row {
			if on {
				ra, rb := find(r), find(d.Rows+c)
				if ra != rb {
					parent[ra] = rb
				}
			}
		}
	}
	in := find(d.InputRow)
	out := make([]bool, len(d.OutputRows))
	for i, r := range d.OutputRows {
		out[i] = find(r) == in
	}
	return out
}
