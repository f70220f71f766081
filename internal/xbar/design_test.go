package xbar

import (
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/labeling"
)

// mustDesign builds a design from cells, panicking on an invalid list.
func mustDesign(rows, cols int, cells ...Cell) *Design {
	d, err := NewDesign(rows, cols, cells)
	if err != nil {
		panic(err)
	}
	return d
}

// setCell returns a copy of d whose crossing (r, c) holds e; an Off entry
// removes the cell.
func setCell(d *Design, r, c int, e Entry) *Design {
	cells := make([]Cell, 0, len(d.cells)+1)
	for _, x := range d.cells {
		if x.Row != r || x.Col != c {
			cells = append(cells, x)
		}
	}
	if e.Kind != Off {
		cells = append(cells, Cell{Row: r, Col: c, Entry: e})
	}
	nd, err := d.withCells(cells)
	if err != nil {
		panic(err)
	}
	return nd
}

// flipCell returns a copy of d with the literal cell's polarity flipped.
func flipCell(d *Design, cell Cell) *Design {
	cell.Neg = !cell.Neg
	return setCell(d, cell.Row, cell.Col, cell.Entry)
}

func TestNewDesignSortsAndIndexes(t *testing.T) {
	d := mustDesign(3, 4,
		Cell{Row: 2, Col: 3, Entry: Entry{Kind: On}},
		Cell{Row: 0, Col: 1, Entry: Entry{Kind: Lit, Var: 4, Neg: true}},
		Cell{Row: 2, Col: 0, Entry: Entry{Kind: Lit, Var: 1}},
	)
	want := []Cell{
		{Row: 0, Col: 1, Entry: Entry{Kind: Lit, Var: 4, Neg: true}},
		{Row: 2, Col: 0, Entry: Entry{Kind: Lit, Var: 1}},
		{Row: 2, Col: 3, Entry: Entry{Kind: On}},
	}
	if !reflect.DeepEqual(d.Cells(), want) {
		t.Fatalf("Cells() = %v, want %v", d.Cells(), want)
	}
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			wantE := Entry{}
			for _, x := range want {
				if x.Row == r && x.Col == c {
					wantE = x.Entry
				}
			}
			if got := d.At(r, c); got != wantE {
				t.Errorf("At(%d,%d) = %v, want %v", r, c, got, wantE)
			}
		}
	}
	if got := d.At(-1, 0); got.Kind != Off {
		t.Errorf("At outside the grid = %v, want Off", got)
	}
	if d.NumVars() != 5 {
		t.Errorf("NumVars = %d, want 5", d.NumVars())
	}
	if st := d.Stats(); st.LitCells != 2 || st.OnCells != 1 || st.Area != 12 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestNewDesignRejectsInvalidCells covers the coordinate checks;
// TestCorruptedCellsFailLoudly covers the kind and variable checks.
func TestNewDesignRejectsInvalidCells(t *testing.T) {
	on := Entry{Kind: On}
	for _, tc := range []struct {
		name  string
		cells []Cell
		want  string
	}{
		{"row out of range", []Cell{{Row: 2, Col: 0, Entry: on}}, "outside"},
		{"negative col", []Cell{{Row: 0, Col: -1, Entry: on}}, "outside"},
		{"duplicate", []Cell{{Row: 1, Col: 1, Entry: on}, {Row: 0, Col: 0, Entry: on}, {Row: 1, Col: 1, Entry: Entry{Kind: Lit}}}, "duplicate"},
	} {
		if _, err := NewDesign(2, 2, tc.cells); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := NewDesign(-1, 2, nil); err == nil {
		t.Error("negative dimensions accepted")
	}
}

// TestRemapVarsErrorLeavesDesignUnchanged is the regression for a remap
// that failed half way: every variable is checked before any is rewritten.
func TestRemapVarsErrorLeavesDesignUnchanged(t *testing.T) {
	d := mustDesign(2, 3,
		Cell{Row: 0, Col: 0, Entry: Entry{Kind: Lit, Var: 0}},
		Cell{Row: 0, Col: 1, Entry: Entry{Kind: On}},
		Cell{Row: 1, Col: 2, Entry: Entry{Kind: Lit, Var: 5, Neg: true}},
	)
	d.VarNames = []string{"a", "b", "c", "d", "e", "f"}
	cells := slices.Clone(d.Cells())
	names := d.VarNames
	for _, remap := range [][]int{{2, 1, 0}, {3, 0, 0, 0, 0, -1}} {
		if err := d.RemapVars(remap, []string{"x", "y", "z"}); err == nil {
			t.Fatalf("RemapVars(%v) accepted a remap that misses a variable", remap)
		}
		if !reflect.DeepEqual(d.Cells(), cells) || !reflect.DeepEqual(d.VarNames, names) {
			t.Fatalf("failed RemapVars(%v) changed the design: %v %v", remap, d.Cells(), d.VarNames)
		}
		if d.NumVars() != 6 {
			t.Fatalf("failed RemapVars changed NumVars to %d", d.NumVars())
		}
	}
	if err := d.RemapVars([]int{1, 0, 0, 0, 0, 0}, []string{"p", "q"}); err != nil {
		t.Fatal(err)
	}
	if d.At(0, 0).Var != 1 || d.At(1, 2).Var != 0 || d.NumVars() != 2 {
		t.Fatalf("remapped cells = %v", d.Cells())
	}
}

// TestDecodeEmptyHugeDesignAllocatesLittle pins that decoding allocates in
// proportion to the listed cells plus Rows, not to the declared extent: a
// 65536x32768 body with no cells is 62 bytes on the wire and passes the
// 2^31-cell cap, and used to request a ~17 GB dense grid.
func TestDecodeEmptyHugeDesignAllocatesLittle(t *testing.T) {
	body := []byte(`{"v":1,"rows":65536,"cols":32768,"input_row":0,"output_rows":[]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var d Design
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d.Rows != 65536 || d.Cols != 32768 || len(d.Cells()) != 0 {
		t.Fatalf("decoded %dx%d with %d cells", d.Rows, d.Cols, len(d.Cells()))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding an empty 65536x32768 design allocated %d bytes, want < 1 MiB", got)
	}
}

// mapFixture is c499 (heuristic labeling, gamma 0.5) ready to map: the
// inputs of the Map -> RemapVars -> Stats -> MarshalJSON sequence that
// core.Synthesize and core.View run per synthesis.
type mapFixture struct {
	bg     *BDDGraph
	labels []labeling.Label
	remap  []int
	names  []string
}

func c499Fixture(tb testing.TB) mapFixture {
	tb.Helper()
	nw := bench.MustBuild("c499")
	order := bdd.DFSOrder(nw)
	m, roots, err := bdd.BuildNetwork(nw, order, 4_000_000)
	if err != nil {
		tb.Fatal(err)
	}
	bg, err := FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		tb.Fatal(err)
	}
	sol, err := labeling.Solve(bg.Problem(true), labeling.Options{Method: labeling.MethodHeuristic, Gamma: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	return mapFixture{bg, sol.Labels, slices.Clone(order), nw.InputNames()}
}

func (f mapFixture) run(tb testing.TB) *Design {
	d, err := Map(f.bg, f.labels)
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.RemapVars(f.remap, f.names); err != nil {
		tb.Fatal(err)
	}
	statsSink = d.Stats()
	if _, err := d.MarshalJSON(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// statsSink keeps the compiler from eliding the benchmarked Stats call.
var statsSink Stats

// TestMapC499AllocBound bounds the bytes the map sequence allocates on
// c499, a 5500x5391 grid (29.7M crossings) with 21,275 programmed cells.
// A dense grid of 8-byte entries alone would be 237 MB.
func TestMapC499AllocBound(t *testing.T) {
	f := c499Fixture(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := f.run(t)
	runtime.ReadMemStats(&after)
	if d.Rows != 5500 || d.Cols != 5391 {
		t.Fatalf("c499 mapped to %dx%d, want 5500x5391", d.Rows, d.Cols)
	}
	const bound = 16 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes", got)
	if got > bound {
		t.Fatalf("Map+RemapVars+Stats+MarshalJSON on c499 allocated %d bytes, bound %d", got, bound)
	}
}

func BenchmarkMapC499(b *testing.B) {
	f := c499Fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.run(b)
	}
}
