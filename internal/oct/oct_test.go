package oct

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"compact/internal/graph"
)

func cycle(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func randomGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// bruteMinOCT finds the true minimum OCT size by enumeration.
func bruteMinOCT(g *graph.Graph) int {
	n := g.N()
	for k := 0; k <= n; k++ {
		if tryK(g, k, 0, map[int]bool{}) {
			return k
		}
	}
	return n
}

func tryK(g *graph.Graph, k, from int, removed map[int]bool) bool {
	sub, _ := g.RemoveVertices(removed)
	if sub.IsBipartite() {
		return true
	}
	if k == 0 {
		return false
	}
	for v := from; v < g.N(); v++ {
		if removed[v] {
			continue
		}
		removed[v] = true
		if tryK(g, k-1, v+1, removed) {
			delete(removed, v)
			return true
		}
		delete(removed, v)
	}
	return false
}

func TestBipartiteGraphEmptyOCT(t *testing.T) {
	res, err := Find(cycle(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OCT) != 0 || !res.Optimal {
		t.Errorf("C8 OCT = %v", res.OCT)
	}
	if !Verify(cycle(8), res) {
		t.Error("verify failed")
	}
}

func TestOddCycleOCT(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9} {
		g := cycle(n)
		res, err := Find(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.OCT) != 1 || !res.Optimal {
			t.Errorf("C%d: OCT size %d, want 1", n, len(res.OCT))
		}
		if !Verify(g, res) {
			t.Errorf("C%d: invalid result", n)
		}
	}
}

func TestCompleteGraphOCT(t *testing.T) {
	// K_n needs n-2 removals to become bipartite.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.AddEdge(i, j)
		}
	}
	res, err := Find(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OCT) != 4 || !res.Optimal {
		t.Errorf("K6: OCT size %d, want 4", len(res.OCT))
	}
}

func TestFindMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 9, 0.3)
		res, err := Find(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: not optimal", trial)
		}
		if !Verify(g, res) {
			t.Fatalf("trial %d: invalid OCT", trial)
		}
		if want := bruteMinOCT(g); len(res.OCT) != want {
			t.Fatalf("trial %d: OCT size %d, want %d", trial, len(res.OCT), want)
		}
	}
}

func TestILPBackendAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 8, 0.35)
		a, errA := Find(g, Options{Backend: BackendBB})
		b, errB := Find(g, Options{Backend: BackendILP})
		if errA != nil || errB != nil {
			t.Fatalf("trial %d: Find errors: %v / %v", trial, errA, errB)
		}
		if !Verify(g, a) || !Verify(g, b) {
			t.Fatalf("trial %d: invalid result", trial)
		}
		if a.Optimal && b.Optimal && len(a.OCT) != len(b.OCT) {
			t.Fatalf("trial %d: backends disagree: %d vs %d", trial, len(a.OCT), len(b.OCT))
		}
	}
}

func TestHeuristicValid(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 30, 0.15)
		res := Heuristic(g)
		if !Verify(g, res) {
			t.Fatalf("trial %d: heuristic OCT invalid", trial)
		}
		// Heuristic should be within a reasonable factor on these sizes;
		// at minimum it must never exceed n.
		if len(res.OCT) > g.N() {
			t.Fatalf("trial %d: absurd OCT size", trial)
		}
	}
}

func TestHeuristicOnOddCycle(t *testing.T) {
	res := Heuristic(cycle(7))
	if !Verify(cycle(7), res) {
		t.Fatal("invalid")
	}
	if len(res.OCT) != 1 {
		t.Errorf("heuristic OCT on C7 = %d, want 1 (pruning should reach it)", len(res.OCT))
	}
}

func TestTimeLimitStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := randomGraph(rng, 60, 0.2)
	res, err := Find(g, Options{TimeLimit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(g, res) {
		t.Fatal("time-limited OCT invalid")
	}
}

func TestVerifyCatchesBadColoring(t *testing.T) {
	g := cycle(4)
	bad := Result{OCT: map[int]bool{}, Side: []int{0, 0, 1, 1}}
	if Verify(g, bad) {
		t.Error("invalid coloring accepted")
	}
}

// pruneOracle is the prune Heuristic once ran after colorGreedy: each OCT
// vertex, in ascending (degree, vertex id) order, leaves oct if a full
// re-coloring of the residual graph still succeeds, at O(k·(n+m)).
func pruneOracle(g *graph.Graph, oct map[int]bool) {
	verts := make([]int, 0, len(oct))
	for v := range oct {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool {
		di, dj := g.Degree(verts[i]), g.Degree(verts[j])
		return di < dj || di == dj && verts[i] < verts[j]
	})
	for _, v := range verts {
		delete(oct, v)
		if sub, _ := g.RemoveVertices(oct); !sub.IsBipartite() {
			oct[v] = true
		}
	}
}

// TestHeuristicOCTIsMinimal checks that the greedy OCT leaves the old
// per-vertex prune nothing to re-admit, the invariant Heuristic's doc
// comment proves.
func TestHeuristicOCTIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Float64()*0.3)
		res := Heuristic(g)
		pruned := make(map[int]bool, len(res.OCT))
		for v := range res.OCT {
			pruned[v] = true
		}
		pruneOracle(g, pruned)
		if !reflect.DeepEqual(pruned, res.OCT) {
			t.Fatalf("trial %d: oracle pruned greedy OCT %v to %v", trial, res.OCT, pruned)
		}
	}
}
