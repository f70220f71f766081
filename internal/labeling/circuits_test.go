package labeling_test

import (
	"math"
	"testing"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
)

// circuitProblem builds the aligned labeling instance of a built-in
// benchmark (or a family:size parametric one) the way core does by
// default: DFS variable order, one shared BDD, 0-terminal removed.
func circuitProblem(tb testing.TB, name string) labeling.Problem {
	tb.Helper()
	var nw *logic.Network
	if g, ok := bench.ByName(name); ok {
		nw = g.Build()
	} else {
		var err error
		if nw, err = bench.Parametric(name); err != nil {
			tb.Fatal(err)
		}
	}
	m, roots, err := bdd.BuildNetwork(nw, bdd.DFSOrder(nw), 4_000_000)
	if err != nil {
		tb.Fatal(err)
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		tb.Fatal(err)
	}
	return bg.Problem(true)
}

var heuristicOpts = labeling.Options{Method: labeling.MethodHeuristic, Gamma: 0.5}

// TestHeuristicLargeCircuits pins the heuristic labeling of the largest
// Table I circuits, where the greedy OCT decides S.
func TestHeuristicLargeCircuits(t *testing.T) {
	for _, tc := range []struct {
		name             string
		s, d, rows, cols int
	}{
		{"c499", 10891, 5500, 5500, 5391},
		{"c7552", 3684, 1901, 1783, 1901},
		{"arbiter", 20927, 10464, 10464, 10463},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := circuitProblem(t, tc.name)
			sol, err := labeling.Solve(p, heuristicOpts)
			if err != nil {
				t.Fatal(err)
			}
			if err := labeling.Validate(p, sol.Labels); err != nil {
				t.Fatal(err)
			}
			st := sol.Stats
			if st.S != tc.s || st.D != tc.d || st.Rows != tc.rows || st.Cols != tc.cols {
				t.Errorf("S/D/rows/cols = %d/%d/%d/%d, want %d/%d/%d/%d",
					st.S, st.D, st.Rows, st.Cols, tc.s, tc.d, tc.rows, tc.cols)
			}
		})
	}
}

func BenchmarkSolveHeuristicC499(b *testing.B) {
	p := circuitProblem(b, "c499")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := labeling.Solve(p, heuristicOpts); err != nil {
			b.Fatal(err)
		}
	}
}

var mipOpts = labeling.Options{Method: labeling.MethodMIP, Gamma: 0.5}

// TestMIPNoLPFallbacks solves the exact-labeling instances to proven
// optimality and requires every LP to have stayed on the fast path: the
// revised simplex at the root, the warm dual simplex in every branch &
// bound child. dec (the largest root LP) and cavlc (the most nodes) are
// skipped under -short.
func TestMIPNoLPFallbacks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		obj   float64
		heavy bool
	}{
		{"ctrl", 67.5, false},
		{"priority:16", 57, false},
		{"comparator:4", 30.5, false},
		{"adder:4", 46, false},
		{"dec", 426, true},
		{"cavlc", 78, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy exact instance")
			}
			sol, err := labeling.Solve(circuitProblem(t, tc.name), mipOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Optimal {
				t.Fatalf("not proven optimal (method %s)", sol.Method)
			}
			if got := sol.Stats.Objective(mipOpts.Gamma); math.Abs(got-tc.obj) > 1e-9 {
				t.Errorf("objective %v, want %v", got, tc.obj)
			}
			if sol.LPFallbacks != 0 {
				t.Errorf("%d LP solves left the fast path, want 0", sol.LPFallbacks)
			}
		})
	}
}

// BenchmarkSolveMIPDec is the exact labeling of dec, whose time is the
// root LP: the incumbent meets the root bound, so no node is expanded.
func BenchmarkSolveMIPDec(b *testing.B) { benchmarkMIP(b, "dec") }

// BenchmarkSolveMIPCavlc is the exact labeling of cavlc, whose time is
// the branch & bound nodes.
func BenchmarkSolveMIPCavlc(b *testing.B) { benchmarkMIP(b, "cavlc") }

func benchmarkMIP(b *testing.B, name string) {
	p := circuitProblem(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		sol, err := labeling.Solve(p, mipOpts)
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Optimal {
			b.Fatalf("%s: not proven optimal", name)
		}
		if n := len(sol.Trace); n > 0 {
			nodes += sol.Trace[n-1].Nodes
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
