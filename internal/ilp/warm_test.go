package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"compact/internal/graph"
)

// randomBoxLP is a small random LP with mixed senses, integer
// coefficients and a finite box on every variable (so every node LP is
// bounded, whatever bounds branching leaves).
func randomBoxLP(rng *rand.Rand, nVars, nCons int) *Model {
	mod := NewModel("rnd")
	for j := 0; j < nVars; j++ {
		lo := float64(rng.Intn(5)) - 2
		hi := lo + float64(rng.Intn(6))
		mod.AddVar(fmt.Sprintf("x%d", j), lo, hi, Continuous, math.Round(rng.NormFloat64()*4)/2)
	}
	for c := 0; c < nCons; c++ {
		var terms []Term
		for j := 0; j < nVars; j++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{j, math.Round(rng.NormFloat64() * 3)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		mod.AddConstr(fmt.Sprintf("c%d", c), terms, sense, math.Round(rng.NormFloat64()*5))
	}
	return mod
}

// warmChainStats counts what checkWarmChain saw.
type warmChainStats struct {
	solves, infeasible, cutoffs, errs int
}

// checkWarmChain emulates a branch & bound dive on mod: starting from the
// root's optimal basis it applies steps random bound fixes one at a time,
// solving each node warm from its parent's basis, and requires the warm
// dual simplex to agree with the cold revised simplex and the dense oracle
// on status and objective. An infeasible node restarts the dive at the
// root. Every third node also gets a cutoff a little below its true
// optimum; a warm solve that stops on it must report a valid lower bound
// that meets the cutoff. A warm solve may return an error (the branch &
// bound then re-solves cold), but never a wrong answer.
func checkWarmChain(t *testing.T, mod *Model, rng *rand.Rand, steps int) warmChainStats {
	t.Helper()
	var st warmChainStats
	ctx := context.Background()
	root, err := lowerSparse(mod, mod.lb, mod.ub)
	if err != nil {
		return st
	}
	rootRes, err := root.solveCold(ctx, mod, mod.lb, mod.ub, time.Time{})
	if err != nil || rootRes.status != StatusOptimal {
		return st
	}
	ws := newRsLP(root.lpShape)
	lbs := append([]float64(nil), mod.lb...)
	ubs := append([]float64(nil), mod.ub...)
	snap, x := rootRes.basis, rootRes.x
	for step := 0; step < steps; step++ {
		v := rng.Intn(mod.NumVars())
		switch rng.Intn(4) {
		case 0: // branch down through the parent's value
			ubs[v] = math.Floor(x[v])
		case 1: // branch up
			lbs[v] = math.Ceil(x[v])
		case 2: // fix at a random point of the box, possibly emptying it
			val := lbs[v] + float64(rng.Intn(4))
			lbs[v], ubs[v] = val, val
		default:
			lbs[v] += float64(rng.Intn(3))
		}
		var stop func(float64) bool
		cut := math.Inf(1)
		cold, cerr := solveLPRevised(ctx, mod, lbs, ubs, time.Time{})
		dense, derr := solveLPDense(ctx, mod, lbs, ubs, time.Time{})
		if cerr != nil || derr != nil {
			t.Fatalf("step %d: cold errors: revised %v, dense %v", step, cerr, derr)
		}
		if cold.status != dense.status {
			t.Fatalf("step %d: revised %v, dense %v", step, cold.status, dense.status)
		}
		if step%3 == 2 && cold.status == StatusOptimal {
			cut = cold.obj - rng.Float64()
			stop = func(obj float64) bool { return obj >= cut }
		}
		warm, err := ws.solveWarm(ctx, mod, snap, lbs, ubs, time.Time{}, stop)
		st.solves++
		if err != nil {
			if errors.Is(err, errTimeLimit) {
				t.Fatalf("step %d: warm solve timed out without a deadline", step)
			}
			st.errs++
			lbs, ubs = append(lbs[:0], mod.lb...), append(ubs[:0], mod.ub...)
			snap, x = rootRes.basis, rootRes.x
			continue
		}
		if warm.cutoff {
			st.cutoffs++
			if warm.obj < cut || warm.obj > cold.obj+1e-6 {
				t.Fatalf("step %d: cutoff bound %v, want in [%v, %v]", step, warm.obj, cut, cold.obj)
			}
			continue
		}
		if warm.status != cold.status {
			t.Fatalf("step %d: warm %v, cold %v (dense %v)", step, warm.status, cold.status, dense.status)
		}
		if warm.status != StatusOptimal {
			st.infeasible++
			lbs, ubs = append(lbs[:0], mod.lb...), append(ubs[:0], mod.ub...)
			snap, x = rootRes.basis, rootRes.x
			continue
		}
		for _, ref := range []float64{cold.obj, dense.obj} {
			if math.Abs(warm.obj-ref) > 1e-6*(1+math.Abs(ref)) {
				t.Fatalf("step %d: warm obj %v, cold %v, dense %v", step, warm.obj, cold.obj, dense.obj)
			}
		}
		if err := nodeFeasible(mod, warm.x, lbs, ubs, 1e-6); err != nil {
			t.Fatalf("step %d: warm solution: %v", step, err)
		}
		snap, x = warm.basis, warm.x
	}
	return st
}

// nodeFeasible checks x against mod's rows and the node box lbs/ubs.
func nodeFeasible(mod *Model, x, lbs, ubs []float64, tol float64) error {
	for j := range x {
		if x[j] < lbs[j]-tol || x[j] > ubs[j]+tol {
			return fmt.Errorf("x%d = %v outside [%v, %v]", j, x[j], lbs[j], ubs[j])
		}
	}
	inner := &Model{obj: mod.obj, lb: lbs, ub: ubs, vtype: make([]VarType, len(x)), names: mod.names, constrs: mod.constrs}
	return inner.Feasible(x, tol, true)
}

// TestWarmVsColdRandomLP runs the warm/cold/dense differential over a
// fixed corpus of random LPs. On this corpus the warm path must never
// give up: every node LP answers on the fast path.
func TestWarmVsColdRandomLP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var total warmChainStats
	for trial := 0; trial < 300; trial++ {
		mod := randomBoxLP(rng, 2+rng.Intn(8), 1+rng.Intn(8))
		st := checkWarmChain(t, mod, rng, 12)
		total.solves += st.solves
		total.infeasible += st.infeasible
		total.cutoffs += st.cutoffs
		total.errs += st.errs
	}
	if total.errs != 0 {
		t.Errorf("%d of %d warm solves left the fast path", total.errs, total.solves)
	}
	if total.infeasible == 0 || total.cutoffs == 0 {
		t.Errorf("corpus exercised %d infeasible nodes and %d cutoffs; want both", total.infeasible, total.cutoffs)
	}
}

// TestWarmVsColdVertexCover is the same differential on the vertex-cover
// relaxations the labeling pipeline solves, with 0-1 branching fixes.
func TestWarmVsColdVertexCover(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	errs, solves := 0, 0
	for trial := 0; trial < 30; trial++ {
		g := graph.Random(6+rng.Intn(15), []float64{0.1, 0.3, 0.6}[rng.Intn(3)], uint64(trial)*11+3)
		st := checkWarmChain(t, vcModel(g, rng), rng, 10)
		errs += st.errs
		solves += st.solves
	}
	if errs != 0 {
		t.Errorf("%d of %d warm solves left the fast path", errs, solves)
	}
}

// FuzzWarmStartLP applies a random sequence of bound fixes to a random
// small LP and checks that the warm dual solve agrees with the cold
// revised simplex and the dense oracle (checkWarmChain).
func FuzzWarmStartLP(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1001} {
		f.Add(seed, uint8(5), uint8(4), uint8(8))
	}
	f.Fuzz(func(t *testing.T, seed int64, nVars, nCons, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		mod := randomBoxLP(rng, 1+int(nVars%10), 1+int(nCons%10))
		checkWarmChain(t, mod, rng, 1+int(steps%24))
	})
}
