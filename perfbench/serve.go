package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/logic"
	"compact/internal/parse"
	"compact/internal/server"
)

const (
	nominalRate = 200 // req/s of the open-loop nominal phase
	sloMS       = 100 // p99 limit of every ladder step
	clientConns = 2
	// coldEvery: one arrival in each block of coldEvery is a cold write
	// (the rest are hot reads), at a seeded position in the block.
	coldEvery = 10
	// rungRequests sizes the ladder steps above the nominal rate, so each
	// step's p99 has at least ten samples beyond it.
	rungRequests = 1200
	// chunks is how many interleaved pieces the closed-loop and nominal
	// phases are cut into.
	chunks = 3
	// coldSampleEvery picks which cold-write bodies are decoded and
	// re-verified after the run (about one in four).
	coldSampleEvery = 4
	// The host-speed reference is sampled before every refEveryPasses-th
	// pass of the hits-only phase and every refEveryWrites-th cold write
	// (about 50 samples at --seconds 20), never during the open loop.
	refEveryPasses = 8
	refEveryWrites = 32
)

var ladderRates = []int{100, 200, 400, 800, 1600}

// hotCircuits are the hot keys' circuits; each is requested both as a
// {"benchmark": ...} body and as a BLIF "circuit" body.
var hotCircuits = []string{"ctrl", "cavlc", "int2float", "priority", "router", "c880", "dec", "i2c"}

type wireOptions struct {
	Method string   `json:"method"`
	Gamma  *float64 `json:"gamma,omitempty"`
}

type wireRequest struct {
	Benchmark string      `json:"benchmark,omitempty"`
	Circuit   string      `json:"circuit,omitempty"`
	Format    string      `json:"format,omitempty"`
	Options   wireOptions `json:"options"`
}

// serveReq is one generated request body.
type serveReq struct {
	label   string
	circuit int // index into hotCircuits
	hot     int // index of the hot key, -1 for a cold write
	body    []byte
}

// sample is one answered request of an open-loop phase.
type sample struct {
	req     serveReq
	latency time.Duration // from the request's due time to its last body byte
	lag     time.Duration // how late the generator handed it to a connection
	done    time.Time
	failure string // why the answer is wrong; empty when it is right
	body    []byte // kept only for the cold writes re-verified after the run
}

// serveBench is an in-process compactd with a disk tier under the
// checkout's .bench_build, and the client that drives it.
type serveBench struct {
	cfg      runConfig
	dir      string
	circuits []libCircuit
	hot      []serveReq
	warm     [][]byte // the miss body of each hot key, from set-up
	rng      *rand.Rand
	client   *http.Client
	url      string
	srv      *server.Server
	hs       *http.Server
	served   chan error
	cancel   context.CancelFunc
	hotDeck  *deck
	coldDeck *deck // card k: circuit k/2, body form k%2
	coldSlot int
	reqSeq   atomic.Int64
	synthN   atomic.Int64
	synthDur atomic.Int64
}

func newServeBench(cfg runConfig) (*serveBench, error) {
	sb := &serveBench{
		cfg: cfg,
		dir: filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("serve-store-%d", os.Getpid())),
		rng: rand.New(rand.NewPCG(cfg.seed, 0xc0ffee)),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			DisableCompression:  true,
		}},
	}
	for i, name := range hotCircuits {
		c, err := buildCircuit(name, true)
		if err != nil {
			return nil, err
		}
		sb.circuits = append(sb.circuits, c)
		for _, form := range []string{"bench", "blif"} {
			body, err := sb.body(i, form, nil)
			if err != nil {
				return nil, err
			}
			sb.hot = append(sb.hot, serveReq{label: name + "/" + form, circuit: i, hot: len(sb.hot), body: body})
		}
	}
	sb.hotDeck = &deck{rng: sb.rng, n: len(sb.hot)}
	sb.coldDeck = &deck{rng: sb.rng, n: 2 * len(hotCircuits)}
	return sb, nil
}

func (sb *serveBench) body(circuit int, form string, gamma *float64) ([]byte, error) {
	req := wireRequest{Options: wireOptions{Method: "heuristic", Gamma: gamma}}
	if form == "bench" {
		req.Benchmark = hotCircuits[circuit]
	} else {
		req.Circuit, req.Format = sb.circuits[circuit].blif, "blif"
	}
	return json.Marshal(req)
}

// deck deals 0..n-1 in seeded shuffled rounds, so every stretch of
// traffic carries each card equally often (within one round).
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func (d *deck) next() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// arrival generates the i-th request of a phase: one cold write per block
// of coldEvery arrivals, the rest hot reads. Hot keys and cold circuits
// come from decks rather than independent draws, so the mix (and with it
// the miss latency, which differs 100x between circuits) is the same in
// every run.
func (sb *serveBench) arrival(i int) (serveReq, error) {
	if i%coldEvery == 0 {
		sb.coldSlot = sb.rng.IntN(coldEvery)
	}
	if i%coldEvery != sb.coldSlot {
		return sb.hot[sb.hotDeck.next()], nil
	}
	return sb.coldWrite()
}

// coldWrite deals the next cold write: a hot circuit and body form from
// the cold deck with a fresh seeded gamma, which gives the request a
// cache key never seen before.
func (sb *serveBench) coldWrite() (serveReq, error) {
	k := sb.coldDeck.next()
	circuit, form := k/2, []string{"bench", "blif"}[k%2]
	g := 0.05 + 0.9*sb.rng.Float64()
	body, err := sb.body(circuit, form, &g)
	return serveReq{label: hotCircuits[circuit] + "/" + form + "/cold", circuit: circuit, hot: -1, body: body}, err
}

// synth is the server's Config.Synth: core.SynthesizeContext, timed.
func (sb *serveBench) synth(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
	t0 := time.Now()
	res, err := core.SynthesizeContext(ctx, nw, opts)
	d := time.Since(t0)
	sb.synthN.Add(1)
	sb.synthDur.Add(int64(d))
	sb.cfg.tr.record(0, "", "server.synth", t0, d, nil)
	return res, err
}

// traceHandler wraps Handler() with a span per request, parented to the
// client's span through the X-Bench-* headers.
func (sb *serveBench) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		sb.cfg.tr.record(parent, r.Header.Get("X-Bench-Request"), "server.handler", t0, d,
			map[string]float64{"hit": hitAttr(w.Header().Get("X-Compactd-Cache"))})
	})
}

// hitAttr is 1 for an answer served from either cache tier.
func hitAttr(disp string) float64 {
	if disp == "hit" || disp == "disk" {
		return 1
	}
	return 0
}

// boot starts a fresh compactd over an empty store directory.
func (sb *serveBench) boot() error {
	if err := os.RemoveAll(sb.dir); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := server.New(ctx, server.Config{StoreDir: sb.dir, Synth: sb.synth})
	if err != nil {
		cancel()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return err
	}
	h := srv.Handler()
	if sb.cfg.tr != nil {
		h = sb.traceHandler(h)
	}
	sb.srv, sb.cancel, sb.url = srv, cancel, "http://"+ln.Addr().String()
	sb.hs = &http.Server{Handler: h}
	sb.served = make(chan error, 1)
	go func() { sb.served <- sb.hs.Serve(ln) }()
	return nil
}

// shutdown stops the server, waits for it, and removes its store.
func (sb *serveBench) shutdown() error {
	if sb.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sb.hs.Shutdown(ctx)
	if serr := <-sb.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	sb.cancel()
	sb.client.CloseIdleConnections()
	sb.hs = nil
	if rerr := os.RemoveAll(sb.dir); err == nil {
		err = rerr
	}
	return err
}

// do sends one request and reads the whole answer.
func (sb *serveBench) do(req serveReq) (status int, body []byte, err error) {
	id := strconv.FormatInt(sb.reqSeq.Add(1), 10)
	hr, err := http.NewRequest(http.MethodPost, sb.url+"/v1/synthesize", bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	sp := sb.cfg.tr.begin(0, id, "http.request")
	if sp != 0 {
		hr.Header.Set("X-Bench-Request", id)
		hr.Header.Set("X-Bench-Span", strconv.Itoa(sp))
	}
	resp, err := sb.client.Do(hr)
	if err != nil {
		sb.cfg.tr.end(sp, nil)
		return 0, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close() // the body was read to EOF; a close error changes nothing
	sb.cfg.tr.end(sp, nil)
	return resp.StatusCode, body, err
}

// warmUp boots a server and sends every hot key once (each a miss that
// fills both cache tiers), keeping the bodies hits must equal. It returns
// the time of each step: the boot, then each hot key's miss.
func (sb *serveBench) warmUp() ([]time.Duration, error) {
	t0 := time.Now()
	if err := sb.boot(); err != nil {
		return nil, err
	}
	steps := []time.Duration{time.Since(t0)}
	sb.warm = make([][]byte, len(sb.hot))
	for i, h := range sb.hot {
		t := time.Now()
		status, body, err := sb.do(h)
		steps = append(steps, time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("warming %s: %w", h.label, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("warming %s: status %d: %s", h.label, status, body)
		}
		sb.warm[i] = body
	}
	return steps, nil
}

// sampleRef samples the host-speed reference on a collected heap, outside
// any timed request.
func (sb *serveBench) sampleRef() {
	runtime.GC()
	sb.cfg.ref.sample()
}

// checkBody decodes a 200 body and re-verifies its design against the
// source network from outside the server, returning S and D.
func (sb *serveBench) checkBody(req serveReq, body []byte) (s, d int, err error) {
	var resp struct {
		Result core.ResultView `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, 0, fmt.Errorf("%s: decoding body: %w", req.label, err)
	}
	design := resp.Result.Design
	if design == nil {
		return 0, 0, fmt.Errorf("%s: body carries no design", req.label)
	}
	st := design.Stats()
	if st.S != resp.Result.Crossbar.S || st.D != resp.Result.Crossbar.D {
		return 0, 0, fmt.Errorf("%s: design is %dx%d, body reports S=%d D=%d", req.label, st.Rows, st.Cols, resp.Result.Crossbar.S, resp.Result.Crossbar.D)
	}
	src := sb.circuits[req.circuit].nw
	if bad := design.VerifyAgainst64(src.Eval64, src.NumInputs(), verifyExhaustive, verifySamples, sb.cfg.seed); bad != nil {
		return 0, 0, fmt.Errorf("%s: served design disagrees with the network on %v", req.label, bad)
	}
	return st.S, st.D, nil
}

// seqStats accumulates the closed-loop hits-only phase: pass times, each
// hot key's round trips, and the bytes allocated over the hits.
type seqStats struct {
	passes     []float64
	perKey     [][]float64
	allocBytes uint64
	hits       int
}

// sequential runs the hits-only phase: one caller sends the hot keys in
// seeded order, pass after pass, for the given number of passes.
func (sb *serveBench) sequential(o *outcome, passes int, st *seqStats) {
	if st.perKey == nil {
		st.perKey = make([][]float64, len(sb.hot))
	}
	order := make([]int, len(sb.hot))
	for i := range order {
		order[i] = i
	}
	before := readMem()
	for i := range passes {
		if i%refEveryPasses == 0 {
			sb.sampleRef()
		}
		sb.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		t0 := time.Now()
		for _, k := range order {
			t := time.Now()
			status, body, err := sb.do(sb.hot[k])
			st.perKey[k] = append(st.perKey[k], ms(time.Since(t)))
			o.attempted++
			st.hits++
			if f := sb.answerError(sb.hot[k], status, body, err); f != "" {
				o.fail("%s", f)
			}
		}
		st.passes = append(st.passes, time.Since(t0).Seconds())
	}
	st.allocBytes += memSince(before).allocBytes
}

// coldSequential is the closed-loop cold-write phase: one caller sends n
// cold writes from the cold deck back to back, recording each round trip
// under its card (circuit and body form); one in coldSampleEvery bodies
// is kept for re-verification.
func (sb *serveBench) coldSequential(o *outcome, n int, perCard map[string][]float64, keep *[]sample) error {
	for i := range n {
		if i%refEveryWrites == 0 {
			sb.sampleRef()
		}
		req, err := sb.coldWrite()
		if err != nil {
			return err
		}
		t := time.Now()
		status, body, err := sb.do(req)
		perCard[req.label] = append(perCard[req.label], ms(time.Since(t)))
		o.attempted++
		if f := sb.answerError(req, status, body, err); f != "" {
			o.fail("%s", f)
		} else if i%coldSampleEvery == 0 {
			*keep = append(*keep, sample{req: req, body: body})
		}
	}
	return nil
}

// answerError checks one answer: a 200 for every request, and for a hot
// read a body byte-identical to the miss body of its key.
func (sb *serveBench) answerError(req serveReq, status int, body []byte, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", req.label, err)
	case status != http.StatusOK:
		return fmt.Sprintf("%s: status %d: %.200s", req.label, status, body)
	case req.hot >= 0 && !bytes.Equal(body, sb.warm[req.hot]):
		return fmt.Sprintf("%s: hit body differs from the miss body of the same key", req.label)
	}
	return ""
}

// phase is the answered requests of one or more open-loop runs at one
// rate; drain is how long after its last send the last answer came.
type phase struct {
	samples []sample
	drain   time.Duration
}

func (p *phase) merge(q phase) {
	p.samples = append(p.samples, q.samples...)
	p.drain = max(p.drain, q.drain)
}

// openLoop sends n Poisson arrivals at rate over clientConns
// connections. Each request is timed from its due time, so time spent
// queued behind a slow answer counts.
func (sb *serveBench) openLoop(rate float64, n int) (phase, error) {
	type job struct {
		req serveReq
		due time.Time
		lag time.Duration
	}
	offsets := make([]time.Duration, n)
	reqs := make([]serveReq, n)
	t := 0.0
	for i := range reqs {
		t += sb.rng.ExpFloat64() / rate
		offsets[i] = time.Duration(t * float64(time.Second))
		var err error
		if reqs[i], err = sb.arrival(i); err != nil {
			return phase{}, err
		}
	}

	jobs := make(chan job, len(reqs)) // sized to the number of sends
	results := make([][]sample, clientConns)
	var wg sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cold := 0
			for j := range jobs {
				status, body, err := sb.do(j.req)
				done := time.Now()
				s := sample{req: j.req, latency: done.Sub(j.due), lag: j.lag, done: done,
					failure: sb.answerError(j.req, status, body, err)}
				if j.req.hot < 0 && s.failure == "" {
					if cold%coldSampleEvery == 0 {
						s.body = body
					}
					cold++
				}
				results[w] = append(results[w], s)
			}
		}(w)
	}
	start := time.Now()
	for i, req := range reqs {
		due := start.Add(offsets[i])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{req: req, due: due, lag: time.Since(due)}
	}
	close(jobs)
	wg.Wait()
	var p phase
	last := start
	for _, r := range results {
		p.samples = append(p.samples, r...)
		for _, smp := range r {
			if smp.done.After(last) {
				last = smp.done
			}
		}
	}
	p.drain = last.Sub(start.Add(offsets[n-1]))
	return p, nil
}

// account counts a phase's requests and failures, and collects the
// sampled cold bodies for re-verification after the run.
func (p phase) account(o *outcome, keep *[]sample) {
	for _, s := range p.samples {
		o.attempted++
		if s.failure != "" {
			o.fail("%s", s.failure)
		}
		if s.body != nil {
			*keep = append(*keep, s)
		}
	}
}

// ladder climbs the rate ladder until a step misses the SLO, runs one more
// step at the geometric midpoint of the last passing and the failing rate,
// and returns the rate at which p99 reaches the SLO, interpolated log-log
// inside the final bracket: a bare ladder value would jump by 2x between
// runs whenever capacity sits near a rung. The nominal phase is the
// ladder's 200 req/s step; the 100 req/s step only runs when it fails (a
// lower rate cannot do worse). A ladder that passes every step reports its
// top rate.
func (sb *serveBench) ladder(o *outcome, keep *[]sample, nominal phase) (float64, error) {
	type point struct {
		rate, p99 float64
		ok        bool
	}
	run := func(rate float64) (point, error) {
		p, err := sb.openLoop(rate, rungRequests)
		if err != nil {
			return point{}, err
		}
		p.account(o, keep)
		p99, ok := p.meetsSLO(sb.cfg.logf, rate)
		return point{rate, p99, ok}, nil
	}
	first := point{rate: nominalRate}
	first.p99, first.ok = nominal.meetsSLO(sb.cfg.logf, nominalRate)
	var lo, hi point
	for _, r := range ladderRates {
		pt := first
		switch {
		case r < nominalRate && first.ok:
			continue
		case r != nominalRate:
			var err error
			if pt, err = run(float64(r)); err != nil {
				return 0, err
			}
		}
		if !pt.ok {
			hi = pt
			break
		}
		lo = pt
	}
	if hi.rate <= 0 || lo.rate <= 0 { // no step failed, or even the lowest did
		return lo.rate, nil
	}
	mid, err := run(math.Sqrt(lo.rate * hi.rate))
	if err != nil {
		return 0, err
	}
	if mid.ok {
		lo = mid
	} else {
		hi = mid
	}
	if hi.p99 <= sloMS || hi.p99 <= lo.p99 {
		return lo.rate, nil // the step failed on errors or backlog, not on p99
	}
	f := math.Log(sloMS/lo.p99) / math.Log(hi.p99/lo.p99)
	return lo.rate * math.Pow(hi.rate/lo.rate, f), nil
}

// meetsSLO reports a ladder step's p99 and whether it held that p99 within
// the SLO with every request answered and no backlog left when the step
// ended.
func (p phase) meetsSLO(logf func(string, ...any), rate float64) (float64, bool) {
	var lat []float64
	failed := 0
	for _, s := range p.samples {
		if s.failure != "" {
			failed++
		}
		lat = append(lat, ms(s.latency))
	}
	p99 := quantile(lat, 0.99)
	logf("perfbench: ladder %.0f req/s: %d requests, p99 %.1f ms, %d failed, drained %.0f ms after the step\n",
		rate, len(lat), p99, failed, ms(p.drain))
	return p99, failed == 0 && p99 <= sloMS && p.drain <= sloMS*time.Millisecond
}

func (p phase) latencies(hot bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if (s.req.hot >= 0) == hot {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	sb, err := newServeBench(cfg)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sb.shutdown() }() // error path only; the success path checks it
	o := newOutcome()
	budget := cfg.budget()
	// Each closed-loop phase takes about a quarter of the budget, sized in
	// requests rather than time so that every run does the same work (and
	// grows the cache by the same cold entries): a hot pass takes ~25 ms,
	// a round of the 16 cold-write kinds ~125 ms. The open-loop nominal
	// phase takes the other half.
	hotPasses := max(1, int(budget.Seconds()*0.25/chunks/0.025))
	coldWrites := 2 * len(hotCircuits) * max(1, int(budget.Seconds()*0.25/chunks/0.125))

	// Set-up, setupRounds times: boot on an empty store and warm the hot
	// keys. setup_s is each step's fastest time, summed, for the reason
	// library runs sum their circuits' fastest warm-up runs. Spans are kept
	// off until the measured phases.
	cfg.tr.setOn(false)
	var fastest []time.Duration
	for range setupRounds {
		if err := sb.shutdown(); err != nil {
			return nil, err
		}
		sb.sampleRef()
		steps, err := sb.warmUp()
		if err != nil {
			return nil, err
		}
		if fastest == nil {
			fastest = steps
		}
		for i, d := range steps {
			fastest[i] = min(fastest[i], d)
		}
	}
	var setup time.Duration
	for _, d := range fastest {
		setup += d
	}
	var sumS, sumD float64
	for i, h := range sb.hot {
		o.attempted++
		s, d, err := sb.checkBody(h, sb.warm[i])
		if err != nil {
			o.fail("%v", err)
		}
		sumS, sumD = sumS+float64(s), sumD+float64(d)
	}
	metricsBefore := counters(sb.srv.Metrics())
	synthN0, synthDur0 := sb.synthN.Load(), sb.synthDur.Load()
	mem0 := readMem()
	heap := startHeapSampler()

	// The closed-loop phases (hits only, then cold writes only) and the
	// open-loop nominal phase run in interleaved chunks, so each metric
	// samples the whole run rather than one stretch of it (the speed of a
	// shared host drifts over seconds). A traced run repeats each hits-only
	// chunk with spans on, for the tracing overhead.
	var seq, tracedSeq seqStats
	perCard := map[string][]float64{}
	var nominal phase
	var kept []sample
	spanMark := len(cfg.tr.snapshot())
	for c := 0; c < chunks; c++ {
		sb.sequential(o, hotPasses, &seq)
		if cfg.tr != nil {
			cfg.tr.setOn(true)
			sb.sequential(o, hotPasses, &tracedSeq)
		}
		if err := sb.coldSequential(o, coldWrites, perCard, &kept); err != nil {
			return nil, err
		}
		p, err := sb.openLoop(nominalRate, max(1, int(nominalRate*budget.Seconds()*4/10/chunks)))
		if err != nil {
			return nil, err
		}
		p.account(o, &kept)
		nominal.merge(p)
		cfg.tr.setOn(false)
	}
	peak := heap.finish()
	measuredSpans := cfg.tr.snapshot()[spanMark:]
	// The ladder and the open-loop summary feed per-layer metrics only, so
	// only a traced run climbs the ladder.
	var open map[string]float64
	if cfg.tr != nil {
		cfg.tr.setOn(true)
		maxRate, err := sb.ladder(o, &kept, nominal)
		if err != nil {
			return nil, err
		}
		hits, misses := nominal.latencies(true), nominal.latencies(false)
		open = map[string]float64{
			"open.hit_p50_ms":     quantile(hits, 0.5),
			"open.hit_p99_ms":     quantile(hits, 0.99),
			"open.miss_p50_ms":    quantile(misses, 0.5),
			"open.miss_p90_ms":    quantile(misses, 0.9),
			"open.max_rps_at_slo": maxRate,
		}
	}
	mem := memSince(mem0)
	synthN, synthDur := sb.synthN.Load()-synthN0, time.Duration(sb.synthDur.Load()-synthDur0)
	metricsAfter := counters(sb.srv.Metrics())
	if err := sb.shutdown(); err != nil {
		return nil, err
	}
	for _, s := range kept {
		o.attempted++
		if _, _, err := sb.checkBody(s.req, s.body); err != nil {
			o.fail("%v", err)
		}
	}

	if cfg.tr != nil {
		l := o.layers
		handlerHit, transport, coverage := handlerStats(measuredSpans)
		l["server.handler_hit_ms"] = handlerHit
		l["http.transport_ms"] = transport
		l["trace.coverage"] = coverage
		l["trace.overhead"] = median(tracedSeq.passes)/median(seq.passes) - 1
		sb.stageTimes(o)
		l["runtime.alloc_kb_per_hit"] = float64(seq.allocBytes) / 1024 / float64(seq.hits)
		l["runtime.gc_pause_ms"] = ms(mem.pause)
		l["runtime.gc_cycles"] = float64(mem.gcCycles)
		l["runtime.alloc_mb"] = float64(mem.allocBytes) / 1e6
		l["server.synth_calls"] = float64(synthN)
		if synthN > 0 {
			l["server.synth_ms"] = ms(synthDur) / float64(synthN)
		}
		delta := func(k string) float64 { return float64(metricsAfter[k] - metricsBefore[k]) }
		if req := delta("requests_total"); req > 0 {
			l["server.hit_ratio"] = (delta("cache_hits_total") + delta("cache_disk_hits_total")) / req
		}
		l["server.disk_hits"] = delta("cache_disk_hits_total")
		l["server.shared"] = delta("cache_shared_total")
		l["server.store_errors"] = delta("store_errors_total")
		for k, v := range open {
			l[k] = v
		}
		var lags []float64
		for _, s := range nominal.samples {
			lags = append(lags, ms(s.lag))
		}
		l["loadgen.lag_ms"] = quantile(lags, 0.99)
		return o, nil
	}

	// The closed-loop latencies are summarized per hot key (and per cold
	// card) first, as the key's lower decile: interference from other
	// tenants of a shared host only ever adds time, and a key's fastest
	// tenth of ~100 round trips is the most repeatable reading of what the
	// program itself costs (tail latency under load is the open loop's
	// job). Quantiles are then taken across the 16 keys.
	var keyTimes, cardTimes []float64
	var pass float64
	for _, k := range seq.perKey {
		keyTimes = append(keyTimes, quantile(k, 0.1))
		pass += quantile(k, 0.1)
	}
	for _, rtts := range perCard {
		cardTimes = append(cardTimes, quantile(rtts, 0.1))
	}
	v := o.e2e
	v["setup_s"] = setup.Seconds()
	v["pass_s"] = pass / 1e3
	v["circuit_geomean_ms"] = geomean(keyTimes)
	v["semiperimeter_sum"] = sumS
	v["maxdim_sum"] = sumD
	v["objective_sum"] = gamma*sumS + (1-gamma)*sumD
	v["peak_heap_mb"] = peak
	v["p50_ms"] = quantile(keyTimes, 0.5)
	v["p90_ms"] = quantile(keyTimes, 0.9)
	v["miss_p90_ms"] = quantile(cardTimes, 0.9)
	return o, nil
}

// counters reads the integer counters of the server's Metrics() map.
func counters(m *expvar.Map) map[string]int64 {
	out := map[string]int64{}
	m.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			out[kv.Key] = v.Value()
		}
	})
	return out
}

// handlerStats matches each hit's client span with its handler span: the
// median handler time, the median client time outside the handler, and
// the share of client time the handler spans cover.
func handlerStats(spans []span) (handlerHit, transport, coverage float64) {
	client := map[string]span{}
	for _, s := range spans {
		if s.Name == "http.request" {
			client[s.Req] = s
		}
	}
	var inHandler, outside []float64
	var covered, total float64
	for _, s := range spans {
		c, ok := client[s.Req]
		if s.Name != "server.handler" || !ok {
			continue
		}
		covered += s.dur()
		total += c.dur()
		if s.Attrs["hit"] > 0 {
			inHandler = append(inHandler, s.dur())
			outside = append(outside, c.dur()-s.dur())
		}
	}
	if total > 0 {
		coverage = covered / total
	}
	return median(inHandler), median(outside), coverage
}

// stageTimes times, from outside the server, the steps every request pays
// before the cache lookup: building a named benchmark, parsing a BLIF
// body, and fingerprinting the network. Each is the median of seven calls
// per hot circuit, averaged over the circuits.
func (sb *serveBench) stageTimes(o *outcome) {
	const reps = 7
	var build, parseMS, fp float64
	for _, c := range sb.circuits {
		g, _ := bench.ByName(c.name)
		var tb, tp, tf []float64
		for i := 0; i < reps; i++ {
			sp := sb.cfg.tr.begin(0, c.name, "bench.build")
			t0 := time.Now()
			nw := g.Build()
			tb = append(tb, ms(time.Since(t0)))
			sb.cfg.tr.end(sp, nil)

			sp = sb.cfg.tr.begin(0, c.name, "parse")
			t0 = time.Now()
			_, err := parse.ParseNamed(strings.NewReader(c.blif), parse.BLIF, "")
			tp = append(tp, ms(time.Since(t0)))
			sb.cfg.tr.end(sp, nil)
			if err != nil {
				o.fail("%s: parsing BLIF: %v", c.name, err)
			}

			sp = sb.cfg.tr.begin(0, c.name, "logic.fingerprint")
			t0 = time.Now()
			_ = nw.Fingerprint()
			tf = append(tf, ms(time.Since(t0)))
			sb.cfg.tr.end(sp, nil)
		}
		build += median(tb)
		parseMS += median(tp)
		fp += median(tf)
	}
	n := float64(len(sb.circuits))
	l := o.layers
	l["bench.build_ms"] = build / n
	l["parse.ms"] = parseMS / n
	l["logic.fingerprint_ms"] = fp / n
}
