package exp

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func quickCfg(t *testing.T) Config {
	t.Helper()
	return Config{Quick: true, TimeLimit: 3 * time.Second, OutDir: t.TempDir()}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Name:    "demo",
		Columns: []string{"a", "long_column"},
		Rows:    [][]string{{"1", "x"}, {"22", "value,with,commas"}},
		Notes:   []string{"a note"},
	}
	text := tab.Render()
	for _, frag := range []string{"demo", "long_column", "22", "note: a note"} {
		if !strings.Contains(text, frag) {
			t.Errorf("render missing %q:\n%s", frag, text)
		}
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"value,with,commas"`) {
		t.Errorf("CSV escaping broken:\n%s", csv)
	}
}

func TestTableWrite(t *testing.T) {
	dir := t.TempDir()
	tab := &Table{Name: "w", Columns: []string{"x"}, Rows: [][]string{{"1"}}}
	if err := tab.Write(Config{OutDir: dir}, "w"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"w.txt", "w.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s not written: %v", f, err)
		}
	}
	// Empty OutDir is a no-op.
	if err := tab.Write(Config{}, "w"); err != nil {
		t.Errorf("no-op write failed: %v", err)
	}
}

func TestTable1Quick(t *testing.T) {
	tab, err := Table1(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// First row is c432 with the paper's I/O.
	if tab.Rows[0][0] != "c432" || tab.Rows[0][2] != "36" || tab.Rows[0][3] != "7" {
		t.Errorf("c432 row wrong: %v", tab.Rows[0])
	}
}

func TestTable2Quick(t *testing.T) {
	tab, err := Table2(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows)%3 != 0 {
		t.Errorf("expected 3 gamma rows per benchmark, got %d rows", len(tab.Rows))
	}
}

func TestTable3Quick(t *testing.T) {
	tab, err := Table3(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in (robdds, sbdd) pairs; SBDD nodes must never exceed
	// merged ROBDD nodes.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		if tab.Rows[i][1] != "robdds" || tab.Rows[i+1][1] != "sbdd" {
			t.Fatalf("row pairing broken at %d: %v / %v", i, tab.Rows[i], tab.Rows[i+1])
		}
	}
}

func TestTable4Quick(t *testing.T) {
	tab, err := Table4(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		stair, compact := tab.Rows[i], tab.Rows[i+1]
		if stair[1] != "staircase" || compact[1] != "compact" {
			t.Fatalf("row pairing broken at %d", i)
		}
		if stair[8] != "true" || compact[8] != "true" {
			t.Errorf("%s: design not valid: stair=%s compact=%s", stair[0], stair[8], compact[8])
		}
		if atoiOr(compact[6], 1<<30) > atoiOr(stair[6], 0) {
			t.Errorf("%s: COMPACT S (%s) worse than staircase (%s)", stair[0], compact[6], stair[6])
		}
	}
}

func TestFig9Quick(t *testing.T) {
	tab, err := Fig9(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestFig10Quick(t *testing.T) {
	tab, err := Fig10(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 1 {
		t.Fatal("no trace rows")
	}
}

func TestFig11Quick(t *testing.T) {
	tab, err := Fig11(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		gap := r[4]
		if gap == "" {
			t.Errorf("missing gap in %v", r)
		}
	}
}

func TestFig12Quick(t *testing.T) {
	tab, err := Fig12(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	// COMPACT delay (rows+1) must never exceed the staircase's (which has
	// a row per node).
	for _, r := range tab.Rows {
		if atoiOr(r[5], 1<<30) > atoiOr(r[4], 0) {
			t.Errorf("%s: compact delay %s > staircase %s", r[0], r[5], r[4])
		}
	}
}

func TestFig13Quick(t *testing.T) {
	tab, err := Fig13(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func atoiOr(s string, def int) int {
	v := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return def
		}
		v = v*10 + int(c-'0')
	}
	return v
}

func TestBaselinesQuick(t *testing.T) {
	tab, err := Baselines(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in (dnf, dnf-minimized, staircase, compact) quadruples;
	// every design valid, COMPACT never larger than any baseline, and
	// minimization never hurts the DNF design.
	if len(tab.Rows)%4 != 0 {
		t.Fatalf("expected row quadruples, got %d rows", len(tab.Rows))
	}
	for i := 0; i+3 < len(tab.Rows); i += 4 {
		d, dm, s, c := tab.Rows[i], tab.Rows[i+1], tab.Rows[i+2], tab.Rows[i+3]
		for _, r := range [][]string{d, dm, s, c} {
			if r[6] != "true" {
				t.Errorf("%s/%s: invalid design", r[0], r[1])
			}
		}
		cs, ds, dms, ss := atoiOr(c[4], 1<<30), atoiOr(d[4], 0), atoiOr(dm[4], 0), atoiOr(s[4], 0)
		if cs > ds || cs > ss || cs > dms {
			t.Errorf("%s: compact S=%d not minimal (dnf %d, dnf-min %d, staircase %d)", c[0], cs, ds, dms, ss)
		}
		if dms > ds {
			t.Errorf("%s: minimization grew the DNF design %d -> %d", d[0], ds, dms)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	tab, err := Ablations(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("only %d ablation rows", len(tab.Rows))
	}
}

func TestScalingQuick(t *testing.T) {
	tab, err := Scaling(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		rc, rs := r[3], r[5]
		// COMPACT's ratio must be at least 1 (S >= n) and strictly below
		// the staircase's on every circuit.
		if rc < "1" {
			t.Errorf("%s: compact ratio %s < 1", r[0], rc)
		}
		if rc >= rs {
			t.Errorf("%s: compact ratio %s not below staircase %s", r[0], rc, rs)
		}
	}
}

// TestFlow3DQuick checks every (circuit, K) point verifies and that the
// layered stack pays off on ctrl: S(K=3) < S(K=2), and S never grows
// with K (TestLayeredSMonotone pins the same on the whole EPFL trio).
func TestFlow3DQuick(t *testing.T) {
	tab, err := Flow3D(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(layerSweep) {
		t.Fatalf("got %d rows, want one per K", len(tab.Rows))
	}
	s := make(map[string]int)
	prev := 1 << 30
	for _, r := range tab.Rows {
		if r[0] != "ctrl" {
			t.Fatalf("quick run swept %s, want ctrl only", r[0])
		}
		if r[7] != "true" {
			t.Errorf("ctrl K=%s not verified: %v", r[1], tab.Notes)
		}
		cur := atoiOr(r[2], 1<<30)
		if cur > prev {
			t.Errorf("ctrl K=%s: S=%d grew from %d", r[1], cur, prev)
		}
		prev = cur
		s[r[1]] = cur
	}
	if s["3"] >= s["2"] {
		t.Errorf("ctrl: S(K=3)=%d not below S(K=2)=%d", s["3"], s["2"])
	}
}

// TestPartitionQuick checks ctrl needs more than one 32x32 tile and that
// every tile fits the caps (TestPartitionBenchAcceptance also verifies
// the plan's Eval parity on the trio).
func TestPartitionQuick(t *testing.T) {
	tab, err := Partition(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "ctrl" {
		t.Fatalf("quick run rows: %v", tab.Rows)
	}
	r := tab.Rows[0]
	if tiles := atoiOr(r[3], 0); tiles < 2 {
		t.Errorf("ctrl: %d tiles, want at least 2 under 32x32 caps", tiles)
	}
	dims := strings.Split(r[8], "x")
	if len(dims) != 2 {
		t.Fatalf("ctrl: malformed max_tile %q", r[8])
	}
	for _, d := range dims {
		if atoiOr(d, 1<<30) > partitionCaps {
			t.Errorf("ctrl: largest tile %s exceeds the %d caps", r[8], partitionCaps)
		}
	}
}

// TestMarginQuick checks the yields are probabilities and that
// margin-aware placement improves the worst-case margin on ctrl
// (TestMarginAwarePlacementImprovesMargin pins the same on a small
// network).
func TestMarginQuick(t *testing.T) {
	tab, err := Margin(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "ctrl" {
		t.Fatalf("quick run rows: %v", tab.Rows)
	}
	r := tab.Rows[0]
	for i := range marginSigmas {
		y, err := strconv.ParseFloat(r[3+2*i], 64)
		if err != nil || y < 0 || y > 1 {
			t.Errorf("ctrl: yield@%g = %q is not a probability", marginSigmas[i], r[3+2*i])
		}
	}
	col := len(tab.Columns) - 2 // delta
	delta, err := strconv.ParseFloat(r[col], 64)
	if err != nil {
		t.Fatalf("ctrl: unparsable delta %q", r[col])
	}
	if delta <= 0 {
		t.Errorf("ctrl: margin-aware delta %+.4f, want > 0", delta)
	}
}
