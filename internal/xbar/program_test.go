package xbar

import (
	"math/rand"
	"testing"

	"compact/internal/labeling"
)

func TestProgramStepsAndEquivalence(t *testing.T) {
	nw := fig2Network()
	d, _ := synth(t, nw, labeling.MethodMIP, 0.5, true)
	for a := 0; a < 8; a++ {
		in := []bool{a&1 != 0, a&2 != 0, a&4 != 0}
		p := d.Program(in, nil)
		if p.Steps != d.Rows+1 {
			t.Fatalf("steps = %d, want rows+1 = %d", p.Steps, d.Rows+1)
		}
		// Evaluating the explicit plan must equal direct evaluation.
		got := d.EvalProgrammed(p)
		want := d.Eval(in)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("assignment %03b output %d: plan %v vs direct %v", a, o, got[o], want[o])
			}
		}
	}
}

func TestProgramSwitchingEnergy(t *testing.T) {
	nw := fig2Network()
	d, _ := synth(t, nw, labeling.MethodMIP, 0.5, true)
	base := []bool{false, false, false}
	p0 := d.Program(base, nil)
	// Re-programming the same assignment switches nothing.
	p1 := d.Program(base, p0)
	if p1.Switched != 0 {
		t.Errorf("identical reprogram switched %d devices", p1.Switched)
	}
	// Flipping one variable switches exactly the cells carrying it.
	flipped := []bool{true, false, false}
	p2 := d.Program(flipped, p0)
	carrying := 0
	for _, c := range d.Cells() {
		if c.Kind == Lit && c.Var == 0 {
			carrying++
		}
	}
	if p2.Switched != carrying {
		t.Errorf("flip of one variable switched %d devices, want %d (its literal cells)", p2.Switched, carrying)
	}
	// Initial programming switches exactly the conducting devices.
	conducting := 0
	for _, row := range p0.RowPatterns {
		for _, on := range row {
			if on {
				conducting++
			}
		}
	}
	if p0.Switched != conducting {
		t.Errorf("initial programming switched %d, want %d", p0.Switched, conducting)
	}
}

func TestProgramRandomSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	nw := randomNetwork(rng, 6, 20)
	d, _ := synth(t, nw, labeling.MethodHeuristic, 0.5, true)
	var prev *Programming
	in := make([]bool, 6)
	totalSwitched := 0
	for step := 0; step < 30; step++ {
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		p := d.Program(in, prev)
		totalSwitched += p.Switched
		got, want := d.EvalProgrammed(p), d.Eval(in)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("step %d output %d mismatch", step, o)
			}
		}
		prev = p
	}
	// Incremental switching must never exceed full reprogramming cost.
	if maxCost := 30 * len(d.Cells()); totalSwitched > maxCost {
		t.Errorf("switched %d > bound %d", totalSwitched, maxCost)
	}
}
