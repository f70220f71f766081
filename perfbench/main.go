// Command perfbench is the COMPACT benchmark: one process that drives a
// seeded workload through the synthesis library or an in-process compactd,
// checks every output, and prints the metrics as one JSON object on the
// last line of standard output.
//
//	bash perfbench/run.sh --workload synth-suite --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics of an untraced
// run; with --trace 1 it holds the per-layer metrics of a traced run, and
// the spans are written to .bench_build/spans/. --describe prints the
// workload and metric definitions (committed as perfbench/workloads.json).
// See perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	root    string // checkout root; scratch files go under root/.bench_build
	tr      *tracer
	ref     *hostRef
	logf    func(format string, args ...any) // progress notes, to standard error
}

func (c runConfig) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is a finished run: operation counts, the reasons of failed
// operations, and the measured metrics (end-to-end for an untraced run,
// per-layer for a traced one).
type outcome struct {
	attempted int
	failures  []string
	e2e       map[string]float64
	layers    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workload is one entry of the benchmark; the exported fields are its
// description, printed by --describe.
type workload struct {
	Name     string   `json:"name"`
	Why      string   `json:"why"`
	Loop     string   `json:"loop"`
	Callers  int      `json:"callers,omitempty"`
	Rates    []int    `json:"rates_rps,omitempty"`
	Nominal  int      `json:"nominal_rps,omitempty"`
	Conns    int      `json:"connections,omitempty"`
	SLOms    float64  `json:"slo_p99_ms,omitempty"`
	Mix      string   `json:"mix,omitempty"`
	Circuits []string `json:"circuits"`
	run      func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{
		Name:     "synth-suite",
		Why:      "the paper's 17 Table I circuits (80 to 16.7k BDD nodes) through parse, BDD, heuristic labeling, map, verify and marshal; the ILP does no work",
		Loop:     "closed",
		Callers:  1,
		Circuits: suiteCircuits,
		run:      runSynthSuite,
	},
	{
		Name:     "exact-label",
		Why:      "six instances solved to proven optimality; the ILP does nearly all the work (dec: root LP, cavlc: B&B nodes)",
		Loop:     "closed",
		Callers:  1,
		Circuits: exactCircuits,
		run:      runExactLabel,
	},
	{
		Name:     "serve-mixed",
		Why:      "compactd with both cache tiers: hot reads over 16 keys and cold writes, closed-loop and as 90/10 open-loop traffic; decode, parse, fingerprint and cache carry the reads",
		Loop:     "closed (1 caller: hits-only and cold-write phases) and open (Poisson arrivals at the rates below)",
		Rates:    ladderRates,
		Nominal:  nominalRate,
		Conns:    2,
		SLOms:    sloMS,
		Mix:      "open loop: 90% hot reads over 16 keys (8 circuits x {benchmark, BLIF} body, heuristic method, warmed in set-up), 10% cold writes (the same circuits with a fresh seeded gamma); closed loop: the hot keys alone, then cold writes alone",
		Circuits: hotCircuits,
		run:      runServeMixed,
	},
}

// envStamp identifies where and what was measured. The checkout the
// benchmark runs in is not a git repository, so the code is identified by
// a digest of its Go sources.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Source     string `json:"source_sha256"`
}

func stamp(root string) envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Source:     sourceDigest(root),
	}
}

// sourceDigest hashes go.mod and every .go file under root, in path
// order, skipping hidden directories such as .bench_build.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	slices.Sort(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		// A hash's Write never returns an error.
		_, _ = fmt.Fprintf(h, "%s %d\n", rel, len(data))
		_, _ = h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// description is the --describe document.
type description struct {
	Command   string      `json:"command"`
	SeedArg   string      `json:"seed_arg"`
	Workloads []workload  `json:"workloads"`
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func describe() description {
	return description{
		Command:   "bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>",
		SeedArg:   "--seed <n>: every generated input (circuit order, arrival times, request mix, cold-write gamma, sampled verification vectors) derives from it",
		Workloads: workloads,
		EndToEnd:  endToEnd,
		PerLayer:  perLayer,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Uint64("seed", 1, "seed for every generated input")
	seconds := fl.Float64("seconds", 20, "measuring time")
	traceFlag := fl.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	root := fl.String("root", ".", "checkout root")
	desc := fl.Bool("describe", false, "print the workload and metric definitions and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	// Diagnostics only: a failed write to standard error changes nothing.
	logf := func(format string, args ...any) { _, _ = fmt.Fprintf(stderr, format, args...) }
	if *desc {
		out, err := json.MarshalIndent(describe(), "", "  ")
		if err == nil {
			_, err = fmt.Fprintf(stdout, "%s\n", out)
		}
		if err != nil {
			logf("perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.Name == *name })
	if i < 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		logf("perfbench: need --workload (one of synth-suite, exact-label, serve-mixed), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}
	env := stamp(*root)
	logf("perfbench: %s seed=%d seconds=%g trace=%d go=%s nproc=%d gomaxprocs=%d source=%s\n",
		*name, *seed, *seconds, *traceFlag, env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.Source)
	ref, err := newHostRef()
	if err != nil {
		logf("perfbench: host-speed reference: %v\n", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, root: *root, ref: ref, logf: logf}
	if *traceFlag == 1 {
		cfg.tr = newTracer()
	}
	o, err := workloads[i].run(cfg)
	if err != nil {
		logf("perfbench: %s: %v\n", *name, err)
		return 1
	}
	refMS := ref.estimate()
	if len(ref.times) == 0 || refMS <= 0 {
		logf("perfbench: %s: the host-speed reference was never sampled\n", *name)
		return 1
	}
	scale := refNominalMS / refMS
	logf("perfbench: reference computation %.4g ms over %d samples (%.4g nominal): end-to-end times scaled by %.4f\n", refMS, len(ref.times), refNominalMS, scale)
	for _, d := range endToEnd {
		if v, ok := o.e2e[d.Name]; ok && (d.Unit == "s" || d.Unit == "ms") {
			logf("  %-26s %14.6g %s unscaled\n", d.Name, v, d.Unit)
			o.e2e[d.Name] = v * scale
		}
	}
	o.layers["host.ref_ms"] = refMS
	defs, values, zeroMissing := endToEnd, o.e2e, false
	if cfg.tr != nil {
		defs, values, zeroMissing = perLayer, o.layers, true
		path := filepath.Join(*root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := cfg.tr.write(path, env); err != nil {
			logf("perfbench: writing spans: %v\n", err)
			return 1
		}
		logf("perfbench: spans in %s\n", path)
	}
	vals, err := collect(defs, values, zeroMissing)
	if err != nil {
		logf("perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, d := range defs {
		logf("  %-26s %14.6g %s\n", d.Name, vals[d.Name].Value, d.Unit)
	}
	for _, f := range o.failures {
		logf("perfbench: FAILED %s\n", f)
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(o.failures) == 0, o.attempted, len(o.failures), vals})
	if err != nil {
		logf("perfbench: %v\n", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", out); err != nil {
		logf("perfbench: %v\n", err)
		return 1
	}
	return 0
}
