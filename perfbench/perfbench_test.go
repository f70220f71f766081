package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runCmd runs the benchmark command in-process against a scratch root and
// decodes the last line of its standard output.
func runCmd(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-root", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("run %v: last line is not the result object: %v", args, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("run %v: correct=%v attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, stderr.String())
	}
	return r
}

// checkEmitted requires every metric of defs, with its unit, and nothing else.
func checkEmitted(t *testing.T, name string, r result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d defined", name, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", name, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestShortRuns runs every workload briefly through the command, untraced
// and traced, and checks that the output is correct and names every metric
// with its unit. exact-label's traced run (every instance twice, about
// 40 s) is covered by TestExactLabelTraced on its light instances instead.
func TestShortRuns(t *testing.T) {
	for _, tc := range []struct {
		workload, trace string
	}{
		{"synth-suite", "0"}, {"synth-suite", "1"},
		{"exact-label", "0"},
		{"serve-mixed", "0"}, {"serve-mixed", "1"},
	} {
		t.Run(tc.workload+"/trace"+tc.trace, func(t *testing.T) {
			r := runCmd(t, "--workload", tc.workload, "--seed", "3", "--seconds", "1", "--trace", tc.trace)
			defs := endToEnd
			if tc.trace == "1" {
				defs = perLayer
			}
			checkEmitted(t, tc.workload, r, defs)
			if tc.workload == "synth-suite" && tc.trace == "1" {
				if c := r.Metrics["trace.coverage"].Value; c < 0.9 {
					t.Errorf("trace.coverage = %.3f, want >= 0.9", c)
				}
			}
			if tc.workload == "exact-label" && tc.trace == "0" {
				if s := r.Metrics["objective_sum"].Value; s != 705 {
					t.Errorf("objective_sum = %g, want 705", s)
				}
			}
		})
	}
}

// TestExactLabelTraced runs exact-label's light instances through a traced
// run: every one must come back optimal at its committed objective, and
// the re-composed pipeline must agree with SynthesizeContext.
func TestExactLabelTraced(t *testing.T) {
	spec := exactLabel
	spec.circuits = spec.light()
	l, err := newLibrary(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	o, err := l.run(runConfig{seed: 5, seconds: 0.001, root: t.TempDir(), tr: newTracer(), ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.failures) != 0 {
		t.Fatalf("failures: %v", o.failures)
	}
	if o.layers["labeling.mip_ms"] <= 0 || o.layers["ilp.root_lp_ms"] <= 0 {
		t.Errorf("MIP layers not measured: %v", o.layers)
	}
}

// TestRecompositionMatchesSynthesize is the S/D equality check of the
// traced re-composition against core.SynthesizeContext, circuit by
// circuit, plus the coverage of its stage spans.
func TestRecompositionMatchesSynthesize(t *testing.T) {
	spec := synthSuite
	spec.circuits = spec.light()
	l, err := newLibrary(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr := newTracer()
	for _, c := range l.built {
		want := l.op(ctx, c)
		mark := len(tr.snapshot())
		got := l.tracedOp(ctx, tr, c)
		if want.err != nil || got.err != nil {
			t.Fatalf("%s: SynthesizeContext err %v, re-composition err %v", c.name, want.err, got.err)
		}
		if got.s != want.s || got.d != want.d {
			t.Errorf("%s: re-composition S=%d D=%d, SynthesizeContext S=%d D=%d", c.name, got.s, got.d, want.s, want.d)
		}
		st := summarize(tr.snapshot()[mark:])
		stages := st.ms["bdd.build"] + st.ms["xbar.graph"] + st.ms["labeling.heuristic"] + st.ms["xbar.map"]
		if cov := stages / ms(got.synth); cov < 0.9 || cov > 1.0001 {
			t.Errorf("%s: stage spans cover %.3f of the re-composed synthesis", c.name, cov)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly the metrics the command emits, with the same units,
// directions and bounds, and exactly its workloads.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string    `json:"command"`
		Workloads []workload  `json:"workloads"`
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, b.Workloads[i].Name, w.Name)
		}
	}
}

// TestDescribe keeps the committed workloads.json equal to --describe.
func TestDescribe(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--describe"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("workloads.json is stale; regenerate it with: go run . --describe > workloads.json")
	}
}
