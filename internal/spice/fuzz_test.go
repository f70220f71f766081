package spice

import (
	"math"
	"testing"

	"compact/internal/xbar"
)

// FuzzDenseVsCG is the solver cross-check property: on any valid randomly
// programmed crossbar, the direct dense solve and the Jacobi-preconditioned
// conjugate-gradient solve must agree on every node voltage to within a
// relative tolerance. The design, the assignment and the per-device
// resistance spread are all derived deterministically from the fuzz inputs
// via splitmix64, so every corpus entry replays bit-identically.
func FuzzDenseVsCG(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(0xdeadbeef), uint64(3))
	f.Add(uint64(12345), uint64(0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, seed, spread uint64) {
		state := seed
		rows := 2 + int(splitmix64(&state)%9)  // 2..10
		cols := 1 + int(splitmix64(&state)%10) // 1..10
		nVars := 1 + int(splitmix64(&state)%4) // 1..4

		var cells []xbar.Cell
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				switch splitmix64(&state) % 4 {
				case 0:
					cells = append(cells, xbar.Cell{Row: r, Col: c, Entry: xbar.Entry{Kind: xbar.On}})
				case 1:
					cells = append(cells, xbar.Cell{Row: r, Col: c, Entry: xbar.Entry{
						Kind: xbar.Lit,
						Var:  int32(splitmix64(&state) % uint64(nVars)),
						Neg:  splitmix64(&state)%2 == 0,
					}})
				default:
					// Off twice as likely: sparse arrays are the common case.
				}
			}
		}
		d, err := xbar.NewDesign(rows, cols, cells)
		if err != nil {
			t.Fatal(err)
		}
		d.InputRow = int(splitmix64(&state) % uint64(rows))
		out := int(splitmix64(&state) % uint64(rows))
		if out == d.InputRow {
			out = (out + 1) % rows
		}
		d.OutputRows = []int{out}
		d.OutputNames = []string{"f"}
		d.VarNames = make([]string, nVars)
		for i := range d.VarNames {
			d.VarNames[i] = string(rune('a' + i))
		}
		assign := make([]bool, nVars)
		for i := range assign {
			assign[i] = splitmix64(&state)%2 == 0
		}

		// Half the runs exercise the per-device resistance path, with sigma
		// bounded so the system stays numerically reasonable.
		var env Env
		env.Model = Default()
		if spread%2 == 1 {
			sigma := 0.05 + float64(spread%16)/16
			res, err := SampleResistances(rows, cols, env.Model, Variation{SigmaOn: sigma, SigmaOff: sigma}, spread)
			if err != nil {
				t.Fatal(err)
			}
			env.Res = res
		}

		na, err := compile(d, env)
		if err != nil {
			t.Fatal(err)
		}
		g1, b1, err := na.system(assign, nil)
		if err != nil {
			t.Fatal(err)
		}
		g2, b2, err := na.system(assign, nil)
		if err != nil {
			t.Fatal(err)
		}
		x1, err := solveDense(g1, b1)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := solveCG(g2, b2)
		if err != nil {
			t.Fatal(err)
		}
		if len(x1) != len(x2) {
			t.Fatalf("solution lengths differ: dense %d, cg %d", len(x1), len(x2))
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-6*(1+math.Abs(x1[i])) {
				t.Errorf("node %d: dense %v vs CG %v (seed=%d spread=%d)", i, x1[i], x2[i], seed, spread)
			}
		}
	})
}
