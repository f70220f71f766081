package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The shared two-vCPU host this benchmark was built on changed speed by up
// to 2x within minutes: serve-mixed's hot-read p50 read 0.93 ms over one
// set of ten runs and 0.47 ms over the next, exact-label's pass 26 s and
// then 11.5 s, with no change to the program. That is far beyond any
// regression bound. So every run also times a fixed reference computation
// that shares no code with the program, interleaved with the workload's
// operations, and reports its end-to-end times scaled to the host speed at
// which that computation takes refNominalMS. A change to the program does
// not move the reference, so it moves the scaled times as it moves the raw
// ones.

// refNominalMS is a round figure near the reference computation's time on
// that host in the fastest stretch it was seen in (11.9 ms, the fastest of
// three back-to-back samples); a run at that speed reports its times
// unscaled. It only sets the unit: any constant would do.
const refNominalMS = 12.0

// refLen is the reference's working set per worker in float64s (1 MiB).
const refLen = 1 << 17

// hostRef times the reference computation: every worker (GOMAXPROCS of
// them, since the workloads use both CPUs) sorts a copy of the same seeded
// floats and walks them in a seeded single-cycle order, which mixes
// branchy compute with cache misses as synthesis does. Its arrays live in
// an anonymous mapping outside the Go heap, so they never count towards a
// workload's heap or allocation metrics, and timing allocates nothing, so
// the program's GC settings do not change the reference.
type hostRef struct {
	src   []float64
	bufs  [][]float64 // one per worker
	next  []int32
	sink  []float64 // one result per worker, so the work is not dead code
	times []float64 // ms, one per sample
}

func newHostRef() (*hostRef, error) {
	workers := runtime.GOMAXPROCS(0)
	floats := refLen * (1 + workers)
	mem, err := syscall.Mmap(-1, 0, floats*8+refLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	f := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), floats)
	h := &hostRef{
		src:  f[:refLen],
		next: unsafe.Slice((*int32)(unsafe.Pointer(&mem[floats*8])), refLen),
		sink: make([]float64, workers),
	}
	for w := range workers {
		h.bufs = append(h.bufs, f[refLen*(1+w):refLen*(2+w)])
	}
	rng := rand.New(rand.NewPCG(0x2ef, 0x2ef))
	for i := range h.src {
		h.src[i] = rng.Float64()
	}
	// Sattolo's shuffle: a permutation that is one cycle through all slots.
	for i := range h.next {
		h.next[i] = int32(i)
	}
	for i := refLen - 1; i > 0; i-- {
		j := rng.IntN(i)
		h.next[i], h.next[j] = h.next[j], h.next[i]
	}
	return h, nil
}

func (h *hostRef) work(w int) {
	buf := h.bufs[w]
	copy(buf, h.src)
	slices.Sort(buf)
	var s float64
	j := int32(0)
	for i := range buf {
		j = h.next[j]
		s += buf[i] * h.src[j]
	}
	h.sink[w] = s
}

// sample times the reference once. Callers run it right after a
// collection, so that no collector work overlaps it.
func (h *hostRef) sample() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range h.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.work(w)
		}()
	}
	wg.Wait()
	h.times = append(h.times, ms(time.Since(t0)))
}

// estimate is the reference time of the run: the lower decile of its
// samples, the same reading the workloads take of their operations (a
// circuit's fastest of a handful of runs, a hot key's lower decile).
func (h *hostRef) estimate() float64 { return quantile(h.times, 0.1) }
