package main

import "fmt"

// metricDef names one reported metric. The end-to-end set is printed by
// untraced runs and the per-layer set by traced runs; BENCHMARK.json at the
// repository root lists the same names and units (checked by the tests).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
	Doc    string  `json:"doc"`
}

// endToEnd is what a user of the library or of compactd sees; times (in s
// and ms) are reported at the reference host speed (see hostref.go). Every
// workload measures every metric; the doc says what each one means per
// workload. Library workloads are synth-suite and exact-label. A
// circuit's time is its fastest pass (library); a hot key's or cold-write
// kind's time is the lower decile of its round trips (serve-mixed).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "set-up time, from three set-ups per run as the sum of each step's fastest time: the light circuits of a warm-up pass (library), or compactd boot and each hot key's warm-up miss (serve-mixed); input generation excluded; scaled to the reference host speed"},
	{"pass_s", "s", "lower", 0.25, "median wall time of one pass over the workload's circuits (library), or the sum over the 16 hot keys of each key's closed-loop round trip (serve-mixed); scaled to the reference host speed"},
	{"circuit_geomean_ms", "ms", "lower", 0.25, "geometric mean over circuits of the SynthesizeContext time (library), or over the hot keys of their closed-loop round trip (serve-mixed); scaled to the reference host speed"},
	{"semiperimeter_sum", "count", "lower", 0.01, "sum of crossbar semiperimeters S over a pass's designs (serve-mixed: the 16 hot-key bodies)"},
	{"maxdim_sum", "count", "lower", 0.01, "sum of maximum dimensions D over the same designs"},
	{"objective_sum", "count", "lower", 0.01, "sum of gamma*S + (1-gamma)*D over the same designs, gamma = 0.5"},
	{"peak_heap_mb", "MB", "lower", 0.25, "peak heap of live and unswept objects, read every 5 ms: the largest over circuits of a circuit's smallest per-operation peak (library), or the peak over the measured phases (serve-mixed; a traced run's ladder excluded)"},
	{"p50_ms", "ms", "lower", 0.25, "median across circuits of one circuit's whole operation (library) or across hot keys of one hot read's closed-loop round trip (serve-mixed); scaled to the reference host speed"},
	{"p90_ms", "ms", "lower", 0.25, "90th percentile across circuits or hot keys of the same time; scaled to the reference host speed"},
	{"miss_p90_ms", "ms", "lower", 0.25, "90th percentile across circuits of the SynthesizeContext call (library; on exact-label the ILP is nearly the whole operation, so this coincides with p90_ms by construction), or across the 16 cold-write kinds (circuit x body form) of a cold write's closed-loop round trip (serve-mixed); scaled to the reference host speed"},
}

// perLayer splits the traced run by layer. A workload that does not run a
// layer reports 0 for it (the server layers on the library workloads, the
// ILP on synth-suite). Better gives the direction an optimisation of the
// layer should move the number.
var perLayer = []metricDef{
	{Name: "parse.ms", Unit: "ms", Better: "lower", Doc: "parse time: per pass (library) or per BLIF body (serve-mixed)"},
	{Name: "bdd.build_ms", Unit: "ms", Better: "lower", Doc: "DFSOrder + BuildNetwork, per pass"},
	{Name: "bdd.nodes", Unit: "count", Better: "lower", Doc: "SBDD nodes built, per pass"},
	{Name: "xbar.graph_ms", Unit: "ms", Better: "lower", Doc: "FromBDD, per pass"},
	{Name: "labeling.heuristic_ms", Unit: "ms", Better: "lower", Doc: "heuristic VH-labeling, per pass"},
	{Name: "labeling.mip_ms", Unit: "ms", Better: "lower", Doc: "MIP VH-labeling, per pass"},
	{Name: "ilp.root_lp_ms", Unit: "ms", Better: "lower", Doc: "root LP relaxation time from Solution.Trace, per pass"},
	{Name: "ilp.bb_nodes", Unit: "count", Better: "lower", Doc: "branch & bound nodes, per pass"},
	{Name: "ilp.node_ms", Unit: "ms", Better: "lower", Doc: "(MIP labeling time - root LP time) / B&B nodes, over instances that branched"},
	{Name: "xbar.map_ms", Unit: "ms", Better: "lower", Doc: "Map + RemapVars, per pass"},
	{Name: "xbar.verify_ms", Unit: "ms", Better: "lower", Doc: "VerifyAgainst64 (synth-suite) or FormalVerify (exact-label), per pass"},
	{Name: "xbar.verify_vectors", Unit: "count", Better: "higher", Doc: "input vectors simulated by VerifyAgainst64, per pass"},
	{Name: "core.view_ms", Unit: "ms", Better: "lower", Doc: "View + json.Marshal of the result, per pass"},
	{Name: "core.response_kb", Unit: "KiB", Better: "lower", Doc: "marshaled response bytes, per pass"},
	{Name: "server.handler_hit_ms", Unit: "ms", Better: "lower", Doc: "median time inside Handler() for cache hits"},
	{Name: "http.transport_ms", Unit: "ms", Better: "lower", Doc: "median client round trip minus handler time, for cache hits"},
	{Name: "logic.fingerprint_ms", Unit: "ms", Better: "lower", Doc: "Network.Fingerprint per hot circuit (mean of per-circuit medians)"},
	{Name: "bench.build_ms", Unit: "ms", Better: "lower", Doc: "bench generator Build per hot circuit (mean of per-circuit medians)"},
	{Name: "runtime.alloc_kb_per_hit", Unit: "KiB", Better: "lower", Doc: "bytes allocated per hit in the sequential hits-only phase (client and server share the process)"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Doc: "GC stop-the-world pause total while measuring (library: per traced pass)"},
	{Name: "server.synth_ms", Unit: "ms", Better: "lower", Doc: "mean SynthesizeContext time per call through Config.Synth"},
	{Name: "server.synth_calls", Unit: "count", Better: "lower", Doc: "Config.Synth calls while measuring"},
	{Name: "server.hit_ratio", Unit: "ratio", Better: "higher", Doc: "(memory + disk hits) / requests, from Metrics()"},
	{Name: "server.disk_hits", Unit: "count", Better: "lower", Doc: "disk-tier hits, from Metrics()"},
	{Name: "server.shared", Unit: "count", Better: "lower", Doc: "requests that joined an in-flight solve, from Metrics()"},
	{Name: "server.store_errors", Unit: "count", Better: "lower", Doc: "store I/O failures, from Metrics()"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", Doc: "bytes allocated while measuring (library: per traced pass)"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Doc: "GC cycles while measuring (library: per traced pass)"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Doc: "stage spans / SynthesizeContext wall time (library), handler spans / client spans (serve-mixed)"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Doc: "traced pass / untraced pass - 1, both measured in the traced run"},
	{Name: "open.hit_p50_ms", Unit: "ms", Better: "lower", Doc: "median of hot reads in the open loop at 200 req/s, timed from their due time"},
	{Name: "open.hit_p99_ms", Unit: "ms", Better: "lower", Doc: "99th percentile of the same hot reads"},
	{Name: "open.miss_p50_ms", Unit: "ms", Better: "lower", Doc: "median of cold writes in the open loop at 200 req/s, timed from their due time"},
	{Name: "open.miss_p90_ms", Unit: "ms", Better: "lower", Doc: "90th percentile of the same cold writes"},
	{Name: "open.max_rps_at_slo", Unit: "1/s", Better: "higher", Doc: "rate at which p99 of all requests reaches 100 ms with no backlog: ladder 100..1600 req/s, one midpoint step, log-log interpolation"},
	{Name: "loadgen.lag_ms", Unit: "ms", Better: "lower", Doc: "99th percentile of how late the load generator sent a request at 200 req/s"},
	{Name: "host.ref_ms", Unit: "ms", Better: "lower", Doc: "fastest time of the host-speed reference computation in the run (not program code); end-to-end times are scaled by its nominal time over this"},
}

// metricValue is one reported number in the output object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect renders values for every metric of defs. An end-to-end metric
// the workload did not set is an error; a per-layer one (zero allowed) is
// reported as 0, since a layer the workload does not run did no work. A
// value under a name defs does not know is always an error.
func collect(defs []metricDef, values map[string]float64, zeroMissing bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not defined", name)
		}
	}
	return out, nil
}
