package labeling_test

import (
	"testing"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/labeling"
	"compact/internal/xbar"
)

// circuitProblem builds the aligned labeling instance of a built-in
// benchmark the way core does by default: DFS variable order, one shared
// BDD, 0-terminal removed.
func circuitProblem(tb testing.TB, name string) labeling.Problem {
	tb.Helper()
	nw := bench.MustBuild(name)
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
