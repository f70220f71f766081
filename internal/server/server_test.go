package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compact/internal/core"
	"compact/internal/logic"
)

// andOrBLIF is the test circuit f = (a AND b) OR c.
const andOrBLIF = `.model e2e
.inputs a b c
.outputs f
.names a b w
11 1
.names w c f
1- 1
-1 1
.end
`

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newHTTPServer mounts an already-built Server on a test listener.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// closeServer ends srv's lifetime and joins its background goroutines,
// so nothing writes to its store directory afterwards.
func closeServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// closeOnCleanup runs closeServer at test cleanup. Register it after
// t.TempDir: cleanups run last-in first-out, so the server is joined
// before its store directory is removed.
func closeOnCleanup(t *testing.T, srv *Server) {
	t.Helper()
	t.Cleanup(func() { closeServer(t, srv) })
}

// post sends one synthesize request and returns status, the
// X-Compactd-Cache disposition and the body.
func post(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Compactd-Cache"), data
}

func circuitRequest(opts string) string {
	if opts == "" {
		return fmt.Sprintf(`{"circuit": %q}`, andOrBLIF)
	}
	return fmt.Sprintf(`{"circuit": %q, "options": %s}`, andOrBLIF, opts)
}

// TestCacheHitByteIdenticalAndFast is the headline acceptance test: a
// repeated identical request must be served from cache byte-identically
// and at least 100x faster than the solve that populated it.
func TestCacheHitByteIdenticalAndFast(t *testing.T) {
	const coldSolve = 600 * time.Millisecond
	ts := newTestServer(t, Config{
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			time.Sleep(coldSolve)
			return core.SynthesizeContext(ctx, nw, opts)
		},
	})

	req := circuitRequest(`{"method": "heuristic"}`)
	t0 := time.Now()
	status, disp, first := post(t, ts.URL, req)
	missLatency := time.Since(t0)
	if status != http.StatusOK || disp != "miss" {
		t.Fatalf("first request: status %d, disposition %q, body %s", status, disp, first)
	}
	if missLatency < coldSolve {
		t.Fatalf("miss latency %v below the %v cold solve — hook not in the path?", missLatency, coldSolve)
	}

	// Best of several attempts so an unlucky scheduler hiccup on one
	// round-trip cannot fail the ratio check.
	hitLatency := time.Duration(1 << 62)
	var second []byte
	for i := 0; i < 5; i++ {
		t0 = time.Now()
		status, disp, body := post(t, ts.URL, req)
		if d := time.Since(t0); d < hitLatency {
			hitLatency = d
			second = body
		}
		if status != http.StatusOK || disp != "hit" {
			t.Fatalf("repeat request %d: status %d, disposition %q", i, status, disp)
		}
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit body differs from the miss body:\nmiss: %s\nhit:  %s", first, second)
	}
	if 100*hitLatency > missLatency {
		t.Fatalf("cache hit latency %v is not >=100x lower than miss latency %v", hitLatency, missLatency)
	}
}

// TestSingleflightDedup checks that N concurrent identical requests run
// the synthesis pipeline exactly once and all get identical bodies.
func TestSingleflightDedup(t *testing.T) {
	var solves atomic.Int64
	ts := newTestServer(t, Config{
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			solves.Add(1)
			time.Sleep(200 * time.Millisecond) // hold the flight open for joiners
			return core.SynthesizeContext(ctx, nw, opts)
		},
	})

	const n = 8
	req := circuitRequest(`{"method": "heuristic"}`)
	var (
		start  sync.WaitGroup
		done   sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		disps  []string
	)
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			status, disp, body := post(t, ts.URL, req)
			mu.Lock()
			defer mu.Unlock()
			if status != http.StatusOK {
				t.Errorf("status %d, body %s", status, body)
			}
			bodies = append(bodies, body)
			disps = append(disps, disp)
		}()
	}
	start.Done()
	done.Wait()

	if got := solves.Load(); got != 1 {
		t.Fatalf("synthesis ran %d times for %d concurrent identical requests, want exactly 1", got, n)
	}
	var misses, shared, hits int
	for _, d := range disps {
		switch d {
		case "miss":
			misses++
		case "shared":
			shared++
		case "hit":
			hits++
		default:
			t.Errorf("unexpected disposition %q", d)
		}
	}
	if misses != 1 {
		t.Errorf("got %d miss dispositions, want exactly 1 (shared=%d hit=%d)", misses, shared, hits)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

// TestTimeLimitPolicy checks the server's budget policy: absent limits get
// the default, oversized limits are clamped, and the applied value is
// what reaches the pipeline (and hence the cache key).
func TestTimeLimitPolicy(t *testing.T) {
	var mu sync.Mutex
	var seen []time.Duration
	ts := newTestServer(t, Config{
		DefaultTimeLimit: 123 * time.Millisecond,
		MaxTimeLimit:     250 * time.Millisecond,
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			mu.Lock()
			seen = append(seen, opts.TimeLimit)
			mu.Unlock()
			return core.SynthesizeContext(ctx, nw, opts)
		},
	})

	for _, opts := range []string{
		`{"method": "heuristic"}`,                          // absent -> default
		`{"method": "heuristic", "time_limit_ms": 600000}`, // oversized -> clamped
	} {
		if status, _, body := post(t, ts.URL, circuitRequest(opts)); status != http.StatusOK {
			t.Fatalf("options %s: status %d, body %s", opts, status, body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []time.Duration{123 * time.Millisecond, 250 * time.Millisecond}
	if len(seen) != len(want) {
		t.Fatalf("pipeline ran %d times, want %d (clamped limit must still be a distinct cache key)", len(seen), len(want))
	}
	for i, w := range want {
		if seen[i] != w {
			t.Errorf("request %d: pipeline saw TimeLimit %v, want %v", i, seen[i], w)
		}
	}
}

// TestTinyBudgetStillSucceeds drives the real pipeline with a budget far
// below an exact solve: the anytime contract means the response is still a
// valid design, never a timeout error.
func TestTinyBudgetStillSucceeds(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := `{"benchmark": "ctrl", "options": {"method": "portfolio", "time_limit_ms": 100}}`
	status, _, body := post(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp struct {
		Result core.ResultView `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.Result.Design == nil || resp.Result.Labeling.Method == "" {
		t.Fatalf("degraded response lacks a design or labeling: %s", body)
	}
}

// TestCacheIsContentAddressed checks that renaming the model (which does
// not change the circuit's structure) still hits the cache.
func TestCacheIsContentAddressed(t *testing.T) {
	ts := newTestServer(t, Config{})
	opts := `{"method": "heuristic"}`
	renamed := strings.Replace(andOrBLIF, ".model e2e", ".model other_name", 1)

	if status, disp, body := post(t, ts.URL, circuitRequest(opts)); status != http.StatusOK || disp != "miss" {
		t.Fatalf("first: status %d, disposition %q, body %s", status, disp, body)
	}
	req := fmt.Sprintf(`{"circuit": %q, "options": %s}`, renamed, opts)
	if status, disp, body := post(t, ts.URL, req); status != http.StatusOK || disp != "hit" {
		t.Fatalf("renamed model: status %d, disposition %q, body %s — fingerprint should ignore names", status, disp, body)
	}
}

// TestBadRequests walks the 4xx surface.
func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown field", `{"circus": "x"}`, http.StatusBadRequest},
		{"empty request", `{}`, http.StatusBadRequest},
		{"circuit and benchmark", fmt.Sprintf(`{"circuit": %q, "benchmark": "ctrl"}`, andOrBLIF), http.StatusBadRequest},
		{"unknown benchmark", `{"benchmark": "nonesuch"}`, http.StatusNotFound},
		{"unknown format", fmt.Sprintf(`{"circuit": %q, "format": "vhdl"}`, andOrBLIF), http.StatusBadRequest},
		{"unparseable circuit", `{"circuit": "@@ not a netlist @@"}`, http.StatusBadRequest},
		{"gamma out of range", circuitRequest(`{"gamma": 1.5}`), http.StatusBadRequest},
		{"bad method", circuitRequest(`{"method": "quantum"}`), http.StatusBadRequest},
		{"negative time limit", circuitRequest(`{"time_limit_ms": -1}`), http.StatusBadRequest},
		{"bad var order", circuitRequest(`{"var_order": [0, 0, 1]}`), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := post(t, ts.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %s)", status, tc.status, body)
			}
			var e struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("error body not the envelope: %s", body)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/synthesize")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/synthesize: status %d, want 405", resp.StatusCode)
	}
}

// TestBenchmarksEndpoint checks the registry listing.
func TestBenchmarksEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		Benchmarks []struct {
			Name    string `json:"name"`
			Suite   string `json:"suite"`
			Inputs  int    `json:"inputs"`
			Outputs int    `json:"outputs"`
		} `json:"benchmarks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(doc.Benchmarks) < 10 {
		t.Fatalf("only %d benchmarks listed", len(doc.Benchmarks))
	}
	found := false
	for _, b := range doc.Benchmarks {
		if b.Name == "ctrl" {
			found = true
			if b.Suite != "epfl" || b.Inputs <= 0 || b.Outputs <= 0 {
				t.Errorf("ctrl entry malformed: %+v", b)
			}
		}
	}
	if !found {
		t.Fatalf("ctrl missing from listing")
	}
}

// TestHealthzAndShutdown checks liveness flips to 503 when the base
// context ends, and that new solves are refused.
func TestHealthzAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := New(ctx, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before shutdown: status %d", resp.StatusCode)
	}

	cancel()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("shutting_down")) {
		t.Fatalf("healthz after shutdown: status %d, body %s", resp.StatusCode, body)
	}
	if status, _, body := post(t, ts.URL, circuitRequest("")); status != http.StatusServiceUnavailable {
		t.Fatalf("synthesize after shutdown: status %d, body %s", status, body)
	}
}

// TestDebugVars checks the metrics document shape and that the counters
// move.
func TestDebugVars(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := circuitRequest(`{"method": "heuristic"}`)
	post(t, ts.URL, req)
	post(t, ts.URL, req) // cache hit
	post(t, ts.URL, `{`) // bad request

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var doc struct {
		Compactd struct {
			Requests    int64 `json:"requests_total"`
			Hits        int64 `json:"cache_hits_total"`
			Misses      int64 `json:"cache_misses_total"`
			Solves      int64 `json:"solves_total"`
			BadRequests int64 `json:"bad_requests_total"`
			Entries     int64 `json:"cache_entries"`
		} `json:"compactd"`
		Goroutines int `json:"goroutines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	c := doc.Compactd
	if c.Requests != 3 || c.Hits != 1 || c.Misses != 1 || c.Solves != 1 || c.BadRequests != 1 || c.Entries != 1 {
		t.Fatalf("counters off: %+v", c)
	}
	if doc.Goroutines <= 0 {
		t.Fatalf("goroutines gauge missing")
	}
}

// TestPLAAndAutoFormat checks a non-BLIF circuit through the full HTTP
// path with format sniffing.
func TestPLAAndAutoFormat(t *testing.T) {
	ts := newTestServer(t, Config{})
	pla := ".i 2\n.o 1\n.ilb a b\n.ob f\n11 1\n.e\n"
	req := fmt.Sprintf(`{"circuit": %q, "name": "andgate"}`, pla)
	status, _, body := post(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp struct {
		Result core.ResultView `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if resp.Result.Circuit.Name != "andgate" || resp.Result.Circuit.Inputs != 2 {
		t.Fatalf("circuit view wrong: %+v", resp.Result.Circuit)
	}
}
