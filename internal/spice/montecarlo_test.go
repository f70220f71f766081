package spice

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"compact/internal/defect"
	"compact/internal/faultinject"
	"compact/internal/xbar"
)

// wireDesign is the 2x1 single-literal design f = a: the input wordline
// (row 1) reaches the output wordline (row 0) through an always-on stitch
// and the literal cell. Small enough that every electrical effect is
// hand-checkable.
func wireDesign() (*xbar.Design, func([]bool) []bool) {
	d, err := xbar.NewDesign(2, 1, []xbar.Cell{
		{Row: 0, Col: 0, Entry: xbar.Entry{Kind: xbar.Lit, Var: 0}},
		{Row: 1, Col: 0, Entry: xbar.Entry{Kind: xbar.On}},
	})
	if err != nil {
		panic(err)
	}
	d.InputRow = 1
	d.OutputRows = []int{0}
	d.OutputNames = []string{"f"}
	d.VarNames = []string{"a"}
	return d, func(in []bool) []bool { return []bool{in[0]} }
}

func TestSampleResistancesDeterministic(t *testing.T) {
	v := Variation{SigmaOn: 0.2, SigmaOff: 0.3}
	m1, err := SampleResistances(4, 5, Default(), v, 42)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := SampleResistances(4, 5, Default(), v, 42)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Digest() != m2.Digest() {
		t.Error("same seed produced different resistance maps")
	}
	m3, err := SampleResistances(4, 5, Default(), v, 43)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Digest() == m3.Digest() {
		t.Error("different seeds produced identical resistance maps")
	}
	flat, err := SampleResistances(4, 5, Default(), Variation{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat.ROn {
		if flat.ROn[i] != Default().ROn || flat.ROff[i] != Default().ROff {
			t.Fatalf("zero sigma perturbed device %d: %v/%v", i, flat.ROn[i], flat.ROff[i])
		}
	}
}

// TestMonteCarloByteIdentical pins the seeding-unification satellite: a
// fixed seed yields a byte-identical report, independent of the worker
// count. The low-contrast model guarantees failing trials so the
// critical-cell merge path is exercised too.
func TestMonteCarloByteIdentical(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	base := Default()
	base.ROff = base.ROn * 3
	v := Variation{SigmaOn: 1.0, SigmaOff: 1.0}
	run := func(workers int) []byte {
		rep, err := MonteCarloContext(context.Background(), d, nw.Eval, 3,
			Env{Model: base}, v, MonteCarloOptions{Trials: 24, Vectors: 8, Workers: workers, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	serial := run(1)
	parallel := run(8)
	again := run(8)
	if string(serial) != string(parallel) {
		t.Errorf("report depends on worker count:\n 1: %s\n 8: %s", serial, parallel)
	}
	if string(parallel) != string(again) {
		t.Errorf("same seed, different reports:\n%s\n%s", parallel, again)
	}
}

func TestMonteCarloVectorClamp(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	rep, err := MonteCarloContext(context.Background(), d, nw.Eval, 3,
		Env{Model: HighContrast()}, Variation{SigmaOn: 0.05, SigmaOff: 0.05},
		MonteCarloOptions{Trials: 4, Vectors: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vectors != 8 || !rep.Exhaustive {
		t.Errorf("3-input function not clamped to exhaustive 8 vectors: %+v", rep)
	}
	if rep.Trials != 4 || rep.RequestedTrials != 4 || rep.Truncated {
		t.Errorf("unexpected trial accounting: %+v", rep)
	}
}

func TestMonteCarloExpiredContext(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := MonteCarloContext(ctx, d, nw.Eval, 3, Env{Model: Default()}, Variation{},
		MonteCarloOptions{Trials: 8, Vectors: 8, Seed: 1})
	if err == nil {
		t.Fatal("expired context accepted")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if rep.Trials != 0 || rep.Yield != 0 {
		t.Errorf("non-zero report alongside error: %+v", rep)
	}
}

// TestMonteCarloAnytimeDeadline drives the deadline path: either the run
// truncates to a best-so-far report with a nil error, or (if the machine
// raced through every trial) it completes normally — it must never return
// a partial report next to an error.
func TestMonteCarloAnytimeDeadline(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	rep, err := MonteCarloContext(ctx, d, nw.Eval, 3, Env{Model: HighContrast()},
		Variation{SigmaOn: 0.1, SigmaOff: 0.1},
		MonteCarloOptions{Trials: 100000, Vectors: 8, Seed: 1})
	if err != nil {
		if rep.Trials != 0 {
			t.Errorf("partial report alongside error %v: %+v", err, rep)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("error %v does not wrap the deadline", err)
		}
		return
	}
	if rep.Trials == 0 {
		t.Fatalf("nil error with zero trials: %+v", rep)
	}
	if rep.Trials < rep.RequestedTrials && !rep.Truncated {
		t.Errorf("short run not marked Truncated: %+v", rep)
	}
	if rep.Yield < 0 || rep.Yield > 1 {
		t.Errorf("yield %v outside [0,1]", rep.Yield)
	}
}

func TestMonteCarloCriticalCells(t *testing.T) {
	d, ref := wireDesign()
	base := Default()
	base.ROff = base.ROn * 3 // so little contrast that big spread flips reads
	rep, err := MonteCarloContext(context.Background(), d, ref, 1,
		Env{Model: base}, Variation{SigmaOn: 1.5, SigmaOff: 1.5},
		MonteCarloOptions{Trials: 64, Vectors: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailTrials == 0 {
		t.Fatalf("extreme variation on a no-contrast model produced no failures: %+v", rep)
	}
	if len(rep.Critical) == 0 {
		t.Fatalf("failing trials but no critical cells: %+v", rep)
	}
	for _, c := range rep.Critical {
		if c.Row < 0 || c.Row >= d.Rows || c.Col < 0 || c.Col >= d.Cols {
			t.Errorf("critical cell (%d,%d) outside the %dx%d design", c.Row, c.Col, d.Rows, d.Cols)
		}
		if c.Flips <= 0 {
			t.Errorf("critical cell (%d,%d) with non-positive flip count %d", c.Row, c.Col, c.Flips)
		}
	}
	for i := 1; i < len(rep.Critical); i++ {
		if rep.Critical[i].Flips > rep.Critical[i-1].Flips {
			t.Errorf("critical cells not sorted by flips: %+v", rep.Critical)
		}
	}
}

func TestMonteCarloRefArityChecked(t *testing.T) {
	d, _ := wireDesign()
	bad := func(in []bool) []bool { return []bool{in[0], !in[0]} } // two outputs, design has one
	rep, err := MonteCarloContext(context.Background(), d, bad, 1,
		Env{Model: Default()}, Variation{}, MonteCarloOptions{Trials: 2, Vectors: 2, Seed: 1})
	if err == nil {
		t.Fatal("mismatched ref arity accepted")
	}
	if rep.Trials != 0 {
		t.Errorf("non-zero report alongside error: %+v", rep)
	}
}

func TestMonteCarloFaultInjection(t *testing.T) {
	d, ref := wireDesign()
	t.Setenv(faultinject.EnvVar, "spice")
	_, err := MonteCarloContext(context.Background(), d, ref, 1,
		Env{Model: Default()}, Variation{}, MonteCarloOptions{Trials: 2, Vectors: 2})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("COMPACT_FAULTS=spice not injected: %v", err)
	}
	t.Setenv(faultinject.EnvVar, "spice=timeout")
	_, err = MonteCarloContext(context.Background(), d, ref, 1,
		Env{Model: Default()}, Variation{}, MonteCarloOptions{Trials: 2, Vectors: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("COMPACT_FAULTS=spice=timeout not a timeout: %v", err)
	}
}

// TestBridgeSneakPath pins the analog semantics the margin-aware placement
// objective optimizes: a stuck-ON device on a used×spare crossing ties the
// spare line into the array. Two such devices on one spare bitline — one
// to the input wordline, one to the output wordline — form a sneak path
// around the literal cell, so the a=0 read shoots up; a placement that
// avoids feeding the spare keeps the read clean.
func TestBridgeSneakPath(t *testing.T) {
	d, _ := wireDesign()
	model := Default()

	dm, err := defect.New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Spare bitline 1 bridged to physical row 0 (output under identity) and
	// physical row 1 (input under identity).
	if err := dm.Set(0, 1, defect.StuckOn); err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(1, 1, defect.StuckOn); err != nil {
		t.Fatal(err)
	}

	off := []bool{false}
	clean, err := Simulate(d, off, model)
	if err != nil {
		t.Fatal(err)
	}
	bridged, err := SimulateEnv(d, off, Env{Model: model, Defects: dm})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Simulate(d, []bool{true}, model)
	if err != nil {
		t.Fatal(err)
	}
	if bridged[0] < 10*clean[0] {
		t.Errorf("stuck-ON bridge pair barely moved the off-read: clean %v, bridged %v", clean[0], bridged[0])
	}
	// The sneak path has 2*R_on where the legitimate path has one, so the
	// corrupted off-read lands within a small factor of the on-read —
	// indistinguishable from a logic 1 for any sane threshold.
	if bridged[0] < 0.25*on[0] {
		t.Errorf("two-R_on sneak path should read like a logic 1 (on-read %v), got %v", on[0], bridged[0])
	}

	// An alternative placement (logical output→phys 2, input→phys 0) leaves
	// the bridge chain dangling: device (0,1) ties spare bitline 1 to the
	// input, device (1,1) only chains on the spare wordline 1 — no path to
	// the output.
	alt := &xbar.Placement{RowPerm: []int{2, 0}, ColPerm: []int{0}, Engine: "test"}
	moved, err := SimulateEnv(d, off, Env{Model: model, Defects: dm, Placement: alt})
	if err != nil {
		t.Fatal(err)
	}
	if moved[0] > 2*clean[0] {
		t.Errorf("re-placed design should dodge the sneak path: clean %v, placed %v", clean[0], moved[0])
	}
}

// TestStuckOverrideOnUsedCrossing pins the other defect effect: a stuck
// device under a used×used crossing drives that cell's conductance
// regardless of the programmed state.
func TestStuckOverrideOnUsedCrossing(t *testing.T) {
	d, _ := wireDesign()
	model := Default()
	dm, err := defect.New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The literal cell's device is stuck-ON: f reads 1 even for a=0.
	if err := dm.Set(0, 0, defect.StuckOn); err != nil {
		t.Fatal(err)
	}
	off := []bool{false}
	clean, err := Simulate(d, off, model)
	if err != nil {
		t.Fatal(err)
	}
	stuck, err := SimulateEnv(d, off, Env{Model: model, Defects: dm})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Simulate(d, []bool{true}, model)
	if err != nil {
		t.Fatal(err)
	}
	if stuck[0] < 0.9*on[0] {
		t.Errorf("stuck-ON override should read like a=1 (%v), got %v (clean off-read %v)", on[0], stuck[0], clean[0])
	}
}

// TestMonteCarloEnvPlacedMatchesIdentity sanity-checks Env plumbing: on a
// fault-free array exactly the design's size, an explicit identity
// placement must not change the report.
func TestMonteCarloEnvPlacedMatchesIdentity(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	dm, err := defect.New(d.Rows, d.Cols)
	if err != nil {
		t.Fatal(err)
	}
	idRows := make([]int, d.Rows)
	idCols := make([]int, d.Cols)
	for i := range idRows {
		idRows[i] = i
	}
	for i := range idCols {
		idCols[i] = i
	}
	pl := &xbar.Placement{RowPerm: idRows, ColPerm: idCols, Engine: "identity"}
	opts := MonteCarloOptions{Trials: 8, Vectors: 8, Seed: 5}
	v := Variation{SigmaOn: 0.3, SigmaOff: 0.3}
	plain, err := MonteCarloContext(context.Background(), d, nw.Eval, 3, Env{Model: Default()}, v, opts)
	if err != nil {
		t.Fatal(err)
	}
	placed, err := MonteCarloContext(context.Background(), d, nw.Eval, 3,
		Env{Model: Default(), Defects: dm, Placement: pl}, v, opts)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(plain)
	b2, _ := json.Marshal(placed)
	if string(b1) != string(b2) {
		t.Errorf("identity placement on a fault-free array changed the report:\n%s\n%s", b1, b2)
	}
}
