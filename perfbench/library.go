package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"compact"
	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
)

// suiteCircuits is the paper's Table I suite, in the table's order.
var suiteCircuits = []string{
	"c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c7552",
	"arbiter", "cavlc", "ctrl", "dec", "i2c", "int2float", "priority", "router",
}

// exactCircuits are solved to proven optimality by exact-label. The
// parametric ones use bench.Parametric's family:size names.
var exactCircuits = []string{"ctrl", "cavlc", "dec", "priority:16", "comparator:4", "adder:4"}

// exactObjective is the committed proven-optimal objective
// gamma*S + (1-gamma)*D (gamma = 0.5) of each exact-label instance; their
// sum, the workload's objective_sum, is 705.
var exactObjective = map[string]float64{
	"ctrl": 67.5, "cavlc": 78, "dec": 426, "priority:16": 57, "comparator:4": 30.5, "adder:4": 46,
}

const (
	// verifyExhaustive is the input count up to which a design is checked
	// on every assignment; wider designs get verifySamples seeded vectors.
	verifyExhaustive = 16
	verifySamples    = 1024
	// exactBudget is far beyond the slowest instance (dec, ~10 s), so no
	// exact solve is cut short.
	exactBudget = 60 * time.Second
	gamma       = core.DefaultGamma
	// setupRounds is how many warm-up passes a library run makes (see run).
	setupRounds = 3
)

// libCircuit is one generated input of a library workload.
type libCircuit struct {
	name string
	nw   *logic.Network // the generator's network: the verification reference
	blif string         // the network as BLIF text, for workloads that parse
}

// libSpec is what tells the two library workloads apart.
type libSpec struct {
	circuits []string
	opts     core.Options
	parse    bool // operations start from BLIF text (synth-suite)
	exact    bool // require proven optimality and FormalVerify (exact-label)
	// heavy names the circuits whose operation takes over 100 ms in this
	// workload: they run once per pass instead of repeats times, and are
	// left out of the warm-up, which would otherwise take longer than a
	// measured pass.
	heavy map[string]bool
	// repeats is how many times an untraced measured pass runs each light
	// circuit (see pass).
	repeats int
	// passTime is the usual wall time of one untraced pass on the two-vCPU
	// host the benchmark was built on (whose speed varied by 2x, see
	// hostref.go). A run makes the whole number of passes closest to
	// --seconds / passTime, at least one, so that it does the same work on
	// a fast or a slow host and measures about --seconds at the usual
	// speed.
	passTime time.Duration
}

var synthSuite = libSpec{
	circuits: suiteCircuits,
	opts:     core.Options{Method: labeling.MethodHeuristic},
	parse:    true,
	heavy:    map[string]bool{"arbiter": true, "c499": true, "c1355": true, "c7552": true},
	repeats:  3,
	passTime: 8 * time.Second, // 4-9 s
}

var exactLabel = libSpec{
	circuits: exactCircuits,
	opts:     core.Options{TimeLimit: exactBudget},
	exact:    true,
	heavy:    map[string]bool{"cavlc": true, "dec": true},
	// The parallel branch & bound's time varies with its search order, so
	// a light instance's fastest run needs more tries to settle.
	repeats:  6,
	passTime: 19 * time.Second, // 11-26 s
}

// light returns the circuits of s that are not heavy.
func (s libSpec) light() []string {
	var out []string
	for _, n := range s.circuits {
		if !s.heavy[n] {
			out = append(out, n)
		}
	}
	return out
}

// library drives one library workload: passes of closed-loop operations,
// one circuit at a time.
type library struct {
	libSpec
	built []libCircuit // the generated inputs, in spec order
	seed  uint64
	rng   *rand.Rand
	ref   *hostRef // sampled before every untraced operation
}

// opResult is one circuit's operation.
type opResult struct {
	name      string
	op, synth time.Duration
	s, d      int
	objective float64
	heapMB    float64 // peak heap while the operation ran (untraced passes)
	err       error
}

type passResult struct {
	wall time.Duration
	ops  []opResult
}

func buildCircuit(name string, withBLIF bool) (libCircuit, error) {
	var nw *logic.Network
	if g, ok := bench.ByName(name); ok {
		nw = g.Build()
	} else {
		var err error
		if nw, err = bench.Parametric(name); err != nil {
			return libCircuit{}, err
		}
	}
	c := libCircuit{name: name, nw: nw}
	if withBLIF {
		var sb strings.Builder
		if err := compact.WriteBLIF(&sb, nw); err != nil {
			return libCircuit{}, fmt.Errorf("%s: writing BLIF: %w", name, err)
		}
		c.blif = sb.String()
	}
	return c, nil
}

func newLibrary(spec libSpec, seed uint64) (*library, error) {
	l := &library{libSpec: spec, seed: seed, rng: rand.New(rand.NewPCG(seed, 0x5eed))}
	for _, n := range spec.circuits {
		c, err := buildCircuit(n, spec.parse)
		if err != nil {
			return nil, err
		}
		l.built = append(l.built, c)
	}
	return l, nil
}

func runSynthSuite(cfg runConfig) (*outcome, error) { return runLibrary(synthSuite, cfg) }

func runExactLabel(cfg runConfig) (*outcome, error) { return runLibrary(exactLabel, cfg) }

func runLibrary(spec libSpec, cfg runConfig) (*outcome, error) {
	l, err := newLibrary(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	return l.run(cfg)
}

// order returns a fresh seeded permutation of the circuits for one pass.
func (l *library) order() []libCircuit {
	out := append([]libCircuit(nil), l.built...)
	l.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// op runs one circuit through the pipeline a user runs: parse (when the
// workload starts from text), SynthesizeContext, the correctness check,
// and View + json.Marshal.
func (l *library) op(ctx context.Context, c libCircuit) opResult {
	r := opResult{name: c.name}
	t0 := time.Now()
	nw := c.nw
	if l.parse {
		var err error
		if nw, err = compact.Parse(strings.NewReader(c.blif), compact.FormatBLIF); err != nil {
			r.err = fmt.Errorf("parse: %w", err)
			return r
		}
	}
	t1 := time.Now()
	res, err := core.SynthesizeContext(ctx, nw, l.opts)
	r.synth = time.Since(t1)
	if err != nil {
		r.err = fmt.Errorf("synthesize: %w", err)
		return r
	}
	if err := l.check(res.Design, res.Labeling, nw, c); err != nil {
		r.err = err
		return r
	}
	if _, err := json.Marshal(res.View()); err != nil {
		r.err = fmt.Errorf("marshal: %w", err)
		return r
	}
	r.op = time.Since(t0)
	r.s, r.d, r.objective = res.Design.Stats().S, res.Design.Stats().D, objective(res.Design)
	return r
}

func objective(d *xbar.Design) float64 {
	st := d.Stats()
	return gamma*float64(st.S) + (1-gamma)*float64(st.D)
}

// check is the correctness gate of one design: VerifyAgainst64 against
// the generator's network (exhaustive up to verifyExhaustive inputs, else
// seeded samples), or, for exact-label, proven optimality at the committed
// objective and a formal equivalence proof.
func (l *library) check(d *xbar.Design, sol *labeling.Solution, nw *logic.Network, c libCircuit) error {
	if l.exact {
		if !sol.Optimal {
			return fmt.Errorf("not proven optimal (method %s)", sol.Method)
		}
		if got, want := objective(d), exactObjective[c.name]; math.Abs(got-want) > 1e-9 {
			return fmt.Errorf("optimal objective %g, committed %g", got, want)
		}
		if err := xbar.FormalVerify(d, c.nw, 0); err != nil {
			return fmt.Errorf("formal verification: %w", err)
		}
		return nil
	}
	if nw.NumInputs() != c.nw.NumInputs() {
		return fmt.Errorf("parsed network has %d inputs, generator %d", nw.NumInputs(), c.nw.NumInputs())
	}
	if bad := d.VerifyAgainst64(c.nw.Eval64, c.nw.NumInputs(), verifyExhaustive, verifySamples, l.seed); bad != nil {
		return fmt.Errorf("design disagrees with the network on %v", bad)
	}
	return nil
}

func verifyVectors(nw *logic.Network) float64 {
	if n := nw.NumInputs(); n <= verifyExhaustive {
		return math.Ldexp(1, n)
	}
	return verifySamples
}

// tracedOp re-composes SynthesizeContext from the public stage functions
// in core's own order (order, BDD, graph, labeling, map + remap), with a
// span around each call, then runs the same check and marshal as op.
func (l *library) tracedOp(ctx context.Context, tr *tracer, c libCircuit) opResult {
	r := opResult{name: c.name}
	t0 := time.Now()
	root := tr.begin(0, c.name, "op")
	defer func() { tr.end(root, nil) }()
	nw := c.nw
	if l.parse {
		sp := tr.begin(root, c.name, "parse")
		var err error
		nw, err = compact.Parse(strings.NewReader(c.blif), compact.FormatBLIF)
		tr.end(sp, nil)
		if err != nil {
			r.err = fmt.Errorf("parse: %w", err)
			return r
		}
	}
	t1 := time.Now()
	opts := l.opts.Canonical()
	if opts.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TimeLimit)
		defer cancel()
	}
	sp := tr.begin(root, c.name, "bdd.build")
	order := bdd.DFSOrder(nw)
	m, roots, err := bdd.BuildNetwork(nw, order, opts.NodeLimit)
	if err != nil {
		tr.end(sp, nil)
		r.err = fmt.Errorf("BDD: %w", err)
		return r
	}
	nodes, edges := m.CountNodes(roots...), m.CountEdges(roots...)
	tr.end(sp, map[string]float64{"bdd.nodes": float64(nodes)})

	sp = tr.begin(root, c.name, "xbar.graph")
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	tr.end(sp, nil)
	if err != nil {
		r.err = fmt.Errorf("graph: %w", err)
		return r
	}

	sp = tr.begin(root, c.name, "labeling")
	sol, err := labeling.SolveContext(ctx, bg.Problem(!opts.NoAlign), labeling.Options{
		Gamma: opts.Gamma, Method: opts.Method, OCTBackend: opts.OCTBackend, AutoExactLimit: opts.AutoExactLimit,
	})
	if err != nil {
		tr.end(sp, nil)
		r.err = fmt.Errorf("labeling: %w", err)
		return r
	}
	tr.rename(sp, labelingSpan(sol.Method))
	tr.end(sp, ilpAttrs(sol))

	sp = tr.begin(root, c.name, "xbar.map")
	design, err := xbar.Map(bg, sol.Labels)
	if err == nil {
		err = design.RemapVars(append([]int(nil), order...), nw.InputNames())
	}
	tr.end(sp, nil)
	if err != nil {
		r.err = fmt.Errorf("map: %w", err)
		return r
	}
	r.synth = time.Since(t1)

	sp = tr.begin(root, c.name, "xbar.verify")
	err = l.check(design, sol, nw, c)
	var vectors map[string]float64
	if !l.exact { // FormalVerify simulates no vectors
		vectors = map[string]float64{"xbar.verify_vectors": verifyVectors(c.nw)}
	}
	tr.end(sp, vectors)
	if err != nil {
		r.err = err
		return r
	}

	sp = tr.begin(root, c.name, "core.view")
	res := &core.Result{Design: design, Graph: bg, Labeling: sol, BDDNodes: nodes, BDDEdges: edges, Order: order, SynthTime: r.synth}
	v := res.View()
	// View fills these two from the network a Result keeps privately.
	ns := nw.Stats()
	v.Fingerprint = nw.Fingerprint()
	v.Circuit = core.CircuitView{Name: nw.Name, Inputs: ns.Inputs, Outputs: ns.Outputs, Gates: ns.Gates, Depth: ns.Depth}
	body, err := json.Marshal(v)
	tr.end(sp, map[string]float64{"core.response_kb": float64(len(body)) / 1024})
	if err != nil {
		r.err = fmt.Errorf("marshal: %w", err)
		return r
	}
	r.op = time.Since(t0)
	r.s, r.d, r.objective = design.Stats().S, design.Stats().D, objective(design)
	return r
}

// labelingSpan names the labeling span after the engine that ran, so
// heuristic and MIP time are reported apart.
func labelingSpan(method string) string {
	switch {
	case strings.HasPrefix(method, "mip"):
		return "labeling.mip"
	case method == "heuristic":
		return "labeling.heuristic"
	default:
		return "labeling." + method
	}
}

// ilpAttrs reads the root LP time and B&B node count from the MIP trace:
// the branch & bound records its first sample right after the root
// relaxation, and its last one carries the final node count.
func ilpAttrs(sol *labeling.Solution) map[string]float64 {
	if len(sol.Trace) == 0 {
		return nil
	}
	return map[string]float64{
		"ilp.root_lp_ms": ms(sol.Trace[0].Elapsed),
		"ilp.bb_nodes":   float64(sol.Trace[len(sol.Trace)-1].Nodes),
	}
}

// pass runs every circuit once, in the order given. Each operation starts
// from a collected heap, so its time does not depend on which circuit's
// garbage the seeded order put before it (arbiter leaves gigabytes).
//
// A light circuit runs repeats times in a row: its operation takes
// milliseconds, so one scheduler slice lost to another tenant of a shared
// host can double it, and the best of several is what repeats from run to
// run.
func (l *library) pass(ctx context.Context, circuits []libCircuit, repeats int) passResult {
	var p passResult
	var refTime time.Duration
	t0 := time.Now()
	for _, c := range circuits {
		n := repeats
		if l.heavy[c.name] {
			n = 1
		}
		for range n {
			runtime.GC()
			t := time.Now()
			l.ref.sample()
			refTime += time.Since(t)
			heap := startHeapSampler()
			r := l.op(ctx, c)
			r.heapMB = heap.finish()
			p.ops = append(p.ops, r)
		}
	}
	p.wall = time.Since(t0) - refTime // the reference is not the pass's work
	return p
}

// tracedPass runs every circuit twice back to back, untraced and then
// traced, so the traced run's overhead, coverage and S/D comparison set
// each traced operation against SynthesizeContext under the same host
// conditions. Each result's wall is the sum of its operations' times; mem
// covers the traced operations only.
func (l *library) tracedPass(ctx context.Context, circuits []libCircuit, tr *tracer) (plain, traced passResult, mem memDelta) {
	for _, c := range circuits {
		runtime.GC()
		r := l.op(ctx, c)
		plain.ops = append(plain.ops, r)
		plain.wall += r.op
		runtime.GC()
		before := readMem()
		r = l.tracedOp(ctx, tr, c)
		d := memSince(before)
		traced.ops = append(traced.ops, r)
		traced.wall += r.op
		mem.allocBytes += d.allocBytes
		mem.gcCycles += d.gcCycles
		mem.pause += d.pause
	}
	return plain, traced, mem
}

// run measures the workload: setupRounds warm-up passes over the light
// circuits, then the full passes the budget buys. setup_s is each light
// circuit's fastest warm-up run, summed: a warm-up pass is a few hundred
// milliseconds of millisecond operations, and the median of whole passes
// moved by 40% with the scheduler slices other tenants of a shared host
// took from them. A traced run makes traced passes instead, whose
// per-layer numbers and tracing overhead come from the same process.
func (l *library) run(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	var light []libCircuit
	for _, c := range l.built {
		if !l.heavy[c.name] {
			light = append(light, c)
		}
	}
	l.ref = cfg.ref
	fastest := map[string]float64{}
	for range setupRounds {
		for _, r := range l.pass(ctx, light, 1).ops {
			if r.err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", r.name, r.err)
			}
			if b, ok := fastest[r.name]; !ok || r.op.Seconds() < b {
				fastest[r.name] = r.op.Seconds()
			}
		}
	}
	var setup float64
	for _, t := range fastest {
		setup += t
	}

	var plain, traced []passResult
	var tracedSpans [][]span
	var tracedMem []memDelta
	// The pass count follows from the budget and the workload's typical
	// pass time, so every run does the same work whatever the host's
	// speed; a traced pass runs each circuit twice and counts double.
	passes := max(1, int(math.Round(cfg.budget().Seconds()/l.passTime.Seconds())))
	if cfg.tr != nil {
		passes = max(1, passes/2)
	}
	for range passes {
		if cfg.tr == nil {
			plain = append(plain, l.pass(ctx, l.order(), l.repeats))
			continue
		}
		mark := len(cfg.tr.snapshot())
		p, t, mem := l.tracedPass(ctx, l.order(), cfg.tr)
		plain, traced = append(plain, p), append(traced, t)
		tracedMem = append(tracedMem, mem)
		tracedSpans = append(tracedSpans, cfg.tr.snapshot()[mark:])
	}

	for _, p := range plain {
		p.account(o)
	}
	if cfg.tr != nil {
		l.compareTraced(o, plain, traced)
		l.layerMetrics(o, plain, traced, tracedSpans, tracedMem)
		return o, nil
	}

	// Each circuit's time is its fastest run: interference from other
	// tenants of a shared host only ever adds time, and the best of a
	// run's passes (and a light circuit's repeats) is its most repeatable
	// reading of the program's speed. Percentiles and the geometric mean
	// are then taken across circuits. Likewise a circuit's heap peak is its
	// smallest run's: how far the heap overshoots before the collector
	// catches up depends on scheduling, and a peak over the whole run
	// picked up those overshoots (exact-label's moved by 27%).
	bestOp, bestSynth, bestHeap := map[string]float64{}, map[string]float64{}, map[string]float64{}
	latest := map[string]opResult{}
	var walls []float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		for _, r := range p.ops {
			if b, ok := bestOp[r.name]; !ok || ms(r.op) < b {
				bestOp[r.name] = ms(r.op)
			}
			if b, ok := bestSynth[r.name]; !ok || ms(r.synth) < b {
				bestSynth[r.name] = ms(r.synth)
			}
			if b, ok := bestHeap[r.name]; !ok || r.heapMB < b {
				bestHeap[r.name] = r.heapMB
			}
			latest[r.name] = r
		}
	}
	var opMS, synthMS []float64
	var sumS, sumD, sumObj, peak float64
	for _, c := range l.built {
		peak = max(peak, bestHeap[c.name])
		opMS, synthMS = append(opMS, bestOp[c.name]), append(synthMS, bestSynth[c.name])
		r := latest[c.name]
		sumS, sumD, sumObj = sumS+float64(r.s), sumD+float64(r.d), sumObj+r.objective
	}
	v := o.e2e
	v["setup_s"] = setup
	v["pass_s"] = median(walls)
	v["circuit_geomean_ms"] = geomean(synthMS)
	v["semiperimeter_sum"] = sumS
	v["maxdim_sum"] = sumD
	v["objective_sum"] = sumObj
	v["peak_heap_mb"] = peak
	v["p50_ms"] = quantile(opMS, 0.5)
	v["p90_ms"] = quantile(opMS, 0.9)
	v["miss_p90_ms"] = quantile(synthMS, 0.9)
	return o, nil
}

// account counts one untraced pass's operations and failures.
func (p passResult) account(o *outcome) {
	for _, r := range p.ops {
		o.attempted++
		if r.err != nil {
			o.fail("%s: %v", r.name, r.err)
		}
	}
}

// compareTraced counts the traced operations and requires each
// re-composed design to match SynthesizeContext's for the same circuit in
// the same pass: the same S and D for the heuristic, the same optimal
// objective for the exact solver (whose parallel branch & bound may pick
// either of two tied optima).
func (l *library) compareTraced(o *outcome, plain, traced []passResult) {
	for i, p := range traced {
		for j, r := range p.ops {
			o.attempted++
			w := plain[i].ops[j]
			switch {
			case r.err != nil:
				o.fail("traced %s: %v", r.name, r.err)
			case w.err != nil:
				// already counted against the untraced pass
			case l.exact && math.Abs(r.objective-w.objective) > 1e-9:
				o.fail("traced %s: objective %g, SynthesizeContext %g", r.name, r.objective, w.objective)
			case !l.exact && (r.s != w.s || r.d != w.d):
				o.fail("traced %s: S=%d D=%d, SynthesizeContext S=%d D=%d", r.name, r.s, r.d, w.s, w.d)
			}
		}
	}
}

// spanMetrics maps span names, and the attrs recorded on them, to the
// per-layer metric holding their per-pass sum.
var spanMetrics = map[string]string{
	"parse":              "parse.ms",
	"bdd.build":          "bdd.build_ms",
	"xbar.graph":         "xbar.graph_ms",
	"labeling.heuristic": "labeling.heuristic_ms",
	"labeling.mip":       "labeling.mip_ms",
	"xbar.map":           "xbar.map_ms",
	"xbar.verify":        "xbar.verify_ms",
	"core.view":          "core.view_ms",
}

var attrMetrics = []string{"bdd.nodes", "ilp.root_lp_ms", "ilp.bb_nodes", "xbar.verify_vectors", "core.response_kb"}

// layerMetrics derives the per-layer numbers of a traced run from each
// traced pass (median over passes): span sums, the stage spans' coverage
// of SynthesizeContext and the traced operations' overhead, both against
// the untraced twin of each operation in the same pass.
func (l *library) layerMetrics(o *outcome, plain, traced []passResult, spans [][]span, mem []memDelta) {
	perPass := map[string][]float64{}
	add := func(name string, v float64) { perPass[name] = append(perPass[name], v) }
	for i, p := range traced {
		var synthRef float64
		for _, r := range plain[i].ops {
			synthRef += ms(r.synth)
		}
		st := summarize(spans[i])
		for name, metric := range spanMetrics {
			add(metric, st.ms[name])
		}
		for _, k := range attrMetrics {
			add(k, st.attrs[k])
		}
		// The stages SynthesizeContext runs, against its untraced time.
		stages := st.ms["bdd.build"] + st.ms["xbar.graph"] + st.ms["xbar.map"]
		for name, d := range st.ms {
			if strings.HasPrefix(name, "labeling.") {
				stages += d
			}
		}
		add("trace.coverage", stages/synthRef)
		add("trace.overhead", p.wall.Seconds()/plain[i].wall.Seconds()-1)
		add("ilp.node_ms", nodeMS(spans[i]))
		add("runtime.alloc_mb", float64(mem[i].allocBytes)/1e6)
		add("runtime.gc_cycles", float64(mem[i].gcCycles))
		add("runtime.gc_pause_ms", ms(mem[i].pause))
	}
	for name, xs := range perPass {
		o.layers[name] = median(xs)
	}
}

// nodeMS is the MIP time per branch & bound node over the instances of one
// pass that branched: (labeling time - root LP time) / nodes.
func nodeMS(spans []span) float64 {
	var t, nodes float64
	for _, s := range spans {
		if s.Name != "labeling.mip" || s.Attrs["ilp.bb_nodes"] < 1 {
			continue
		}
		t += s.dur() - s.Attrs["ilp.root_lp_ms"]
		nodes += s.Attrs["ilp.bb_nodes"]
	}
	if nodes < 1 {
		return 0
	}
	return t / nodes
}
