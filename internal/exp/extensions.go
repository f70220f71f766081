package exp

import (
	"fmt"
	"time"

	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/defect"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/spice"
	"compact/internal/xbar"
)

// The experiments in this file extend the paper's evaluation to the
// repository's additions: FLOW-3D wire layers, area-constrained
// partitioning and device-variation robustness. They run on the EPFL
// control circuits the paper's Table I reports.

// extensionSet is the circuit set of the extension experiments: big
// enough that K, tiling and variation matter, small enough to finish in
// seconds.
var extensionSet = []string{"ctrl", "cavlc", "int2float"}

func extensionCircuits(quick bool) []string {
	if quick {
		return extensionSet[:1]
	}
	return extensionSet
}

const (
	// partitionCaps is the per-tile row and column cap of Partition.
	partitionCaps = 32
	// marginTrials, marginVectors and marginSeed fix Margin's Monte Carlo
	// sampling so its yield curve is reproducible.
	marginTrials  = 16
	marginVectors = 32
	marginSeed    = 1
)

// layerSweep is Flow3D's K axis. 1 and 2 both mean the classic pipeline
// (1 canonicalizes to 2); keeping both documents the clamp in the curve.
var layerSweep = []int{1, 2, 3, 4}

// marginSigmas is Margin's per-device log-normal spread sweep.
var marginSigmas = []float64{0.05, 0.1, 0.2}

// Flow3D measures the FLOW-3D payoff axis: semiperimeter versus the
// wire-layer count K (K <= 2 is the classic two-layer pipeline, K >= 3
// the layered stack), with every design checked by the symbolic
// sneak-path closure and the word-parallel simulation tier.
func Flow3D(cfg Config) (*Table, error) {
	t := &Table{
		Name:    "FLOW-3D: semiperimeter vs wire-layer count K",
		Columns: []string{"circuit", "K", "S", "D", "rows", "cols", "devices", "verified", "solve_ms"},
		Notes:   []string{"heuristic labeling; K <= 2 is the classic pipeline, K >= 3 the layered stack"},
	}
	for _, name := range extensionCircuits(cfg.Quick) {
		nw := bench.MustBuild(name)
		for _, k := range layerSweep {
			res, err := cfg.synthesize(nw, core.Options{
				Method: labeling.MethodHeuristic, TimeLimit: cfg.timeLimit(), Layers: k,
			})
			if err != nil {
				return nil, fmt.Errorf("flow3d %s K=%d: %w", name, k, err)
			}
			var s, d, rows, cols, devices int
			var solve time.Duration
			if res.Design3D != nil {
				st := res.Design3D.Stats()
				s, d, rows, cols, devices = st.S, st.D, st.R, st.C, st.LitCells+st.OnCells
				solve = res.KLabeling.Elapsed
			} else {
				st := res.Stats()
				s, d, rows, cols, devices = st.S, st.D, st.Rows, st.Cols, st.LitCells+st.OnCells
				solve = res.Labeling.Elapsed
			}
			verified := "true"
			if err := res.FormalVerify(0); err != nil {
				verified = "false"
				t.Notes = append(t.Notes, fmt.Sprintf("%s K=%d formal verify: %v", name, k, err))
			} else if err := res.Verify(14, 512, 1); err != nil {
				verified = "false"
				t.Notes = append(t.Notes, fmt.Sprintf("%s K=%d verify: %v", name, k, err))
			}
			t.Rows = append(t.Rows, []string{
				name, itoa(k), itoa(s), itoa(d), itoa(rows), itoa(cols), itoa(devices), verified, f2(float64(solve) / float64(time.Millisecond)),
			})
			cfg.logf("flow3d %s K=%d: S=%d verified=%s", name, k, s, verified)
		}
	}
	return t, t.Write(cfg, "flow3d")
}

// Partition measures what tiling costs: each circuit is synthesized once
// unconstrained (the single-crossbar baseline) and once under per-tile
// caps with the partition fallback, and the cascade's total
// semiperimeter is compared with the baseline's. This is the
// area-constrained view next to the unconstrained results of Table II.
func Partition(cfg Config) (*Table, error) {
	t := &Table{
		Name: "Partition: tiled synthesis under per-tile caps",
		Columns: []string{"circuit", "caps", "baseline_S", "tiles", "cut_nets", "total_S",
			"overhead_pct", "depth", "max_tile", "baseline_time", "tiled_time"},
		Notes: []string{"baseline is the unconstrained single crossbar; overhead = (total_S - baseline_S) / baseline_S"},
	}
	for _, name := range extensionCircuits(cfg.Quick) {
		nw := bench.MustBuild(name)
		start := time.Now()
		base, err := cfg.synthesize(nw, core.Options{TimeLimit: cfg.timeLimit()})
		if err != nil {
			return nil, fmt.Errorf("partition %s baseline: %w", name, err)
		}
		baseTime := time.Since(start)
		baseS := base.Stats().S

		start = time.Now()
		res, err := cfg.synthesize(nw, core.Options{
			TimeLimit: cfg.timeLimit(), MaxRows: partitionCaps, MaxCols: partitionCaps, Partition: true,
		})
		if err != nil {
			return nil, fmt.Errorf("partition %s tiled: %w", name, err)
		}
		tiledTime := time.Since(start)
		// A circuit that fits one tile after all is a 1-tile cascade
		// with no cut nets.
		tiles, cut, totalS, depth := 1, 0, res.Stats().S, 1
		maxRows, maxCols := res.Stats().Rows, res.Stats().Cols
		if res.Plan != nil {
			st := res.Plan.Stats()
			tiles, cut, totalS, depth = st.Tiles, st.CutNets, st.TotalS, st.Depth
			maxRows, maxCols = st.MaxRows, st.MaxCols
		}
		overhead := 100 * float64(totalS-baseS) / float64(baseS)
		t.Rows = append(t.Rows, []string{
			name, itoa(partitionCaps), itoa(baseS), itoa(tiles), itoa(cut), itoa(totalS),
			fmt.Sprintf("%+.1f", overhead), itoa(depth), fmt.Sprintf("%dx%d", maxRows, maxCols),
			dur(baseTime), dur(tiledTime),
		})
		cfg.logf("partition %s: %d tiles, total S %d vs baseline %d", name, tiles, totalS, baseS)
	}
	return t, t.Write(cfg, "partition")
}

// Margin charts variation robustness. For each circuit it synthesizes
// one crossbar and sweeps the log-normal device spread sigma on the
// high-contrast model, reporting the Monte Carlo yield and worst-case
// sensing margin at each sigma. It then replays the margin-aware
// placement experiment: plain versus MarginAware synthesis on a
// sneak-bridge defect map, compared by worst-case margin at equal array
// dimensions.
func Margin(cfg Config) (*Table, error) {
	t := &Table{Name: "Margin: yield vs sigma, and margin-aware placement"}
	t.Columns = []string{"circuit", "size", "S"}
	for _, sigma := range marginSigmas {
		t.Columns = append(t.Columns, fmt.Sprintf("yield@%g", sigma), fmt.Sprintf("margin@%g", sigma))
	}
	t.Columns = append(t.Columns, "margin_plain", "margin_aware", "delta", "time")
	t.Notes = []string{fmt.Sprintf("high-contrast model, %d trials x %d vectors per sigma, seed %d; margins in volts",
		marginTrials, marginVectors, marginSeed)}

	ctx := cfg.context()
	model := spice.HighContrast()
	for _, name := range extensionCircuits(cfg.Quick) {
		nw := bench.MustBuild(name)
		start := time.Now()
		res, err := cfg.synthesize(nw, core.Options{
			Method: labeling.MethodHeuristic, TimeLimit: cfg.timeLimit(),
		})
		if err != nil {
			return nil, fmt.Errorf("margin %s: %w", name, err)
		}
		d := res.Design
		row := []string{name, fmt.Sprintf("%dx%d", d.Rows, d.Cols), itoa(res.Stats().S)}
		for _, sigma := range marginSigmas {
			mc, err := spice.MonteCarloContext(ctx, d, d.Eval, len(d.VarNames),
				spice.Env{Model: model},
				spice.Variation{SigmaOn: sigma, SigmaOff: sigma},
				spice.MonteCarloOptions{Trials: marginTrials, Vectors: marginVectors, Seed: marginSeed})
			if err != nil {
				return nil, fmt.Errorf("margin %s sigma=%g: %w", name, sigma, err)
			}
			row = append(row, f3(mc.Yield), fmt.Sprintf("%+.4f", mc.WorstMargin))
		}
		plain, aware, err := marginAwareDelta(cfg, nw, d)
		if err != nil {
			return nil, fmt.Errorf("margin %s placement: %w", name, err)
		}
		row = append(row, fmt.Sprintf("%+.4f", plain), fmt.Sprintf("%+.4f", aware),
			fmt.Sprintf("%+.4f", aware-plain), dur(time.Since(start)))
		t.Rows = append(t.Rows, row)
		cfg.logf("margin %s: placement delta %+.4f", name, aware-plain)
	}
	return t, t.Write(cfg, "margin")
}

// marginAwareDelta synthesizes nw against a deterministic sneak-bridge
// defect map, once with the plain verified-repair loop and once with
// MarginAware, and returns the worst-case margin of both placements. The
// map adds a spare wordline and bitline, with the two devices joining
// the spare bitline to the input wordline and the first output wordline
// stuck ON. Every placement stays compatible (the faults sit on a spare
// bitline), so any difference is purely the electrical secondary
// objective.
func marginAwareDelta(cfg Config, nw *logic.Network, d *xbar.Design) (plain, aware float64, err error) {
	if len(d.OutputRows) == 0 {
		return 0, 0, fmt.Errorf("design has no output rows")
	}
	dm, err := defect.New(d.Rows+1, d.Cols+1)
	if err != nil {
		return 0, 0, err
	}
	if err := dm.Set(d.InputRow, d.Cols, defect.StuckOn); err != nil {
		return 0, 0, err
	}
	if err := dm.Set(d.OutputRows[0], d.Cols, defect.StuckOn); err != nil {
		return 0, 0, err
	}
	opts := core.Options{
		Method: labeling.MethodHeuristic, TimeLimit: cfg.timeLimit(),
		Defects: dm, DefectSeed: 5,
	}
	for _, marginAware := range []bool{false, true} {
		opts.MarginAware = marginAware
		res, err := cfg.synthesize(nw, opts)
		if err != nil {
			return 0, 0, err
		}
		// Score the placement the way the margin-aware loop does: the
		// worst-case simulated margin of the design bound to the array.
		const exhaustiveLimit, samples = 6, 32
		rep, err := spice.MarginContext(cfg.context(), res.Design, res.Design.Eval,
			len(res.Design.VarNames), exhaustiveLimit, samples,
			spice.Env{Model: spice.Default(), Defects: dm, Placement: res.Placement}, opts.DefectSeed)
		if err != nil {
			return 0, 0, err
		}
		if marginAware {
			aware = rep.MinOn - rep.MaxOff
		} else {
			plain = rep.MinOn - rep.MaxOff
		}
	}
	return plain, aware, nil
}
