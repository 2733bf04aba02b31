package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hunipu"
	"hunipu/internal/serve"
)

// clients is the number of closed-loop client goroutines: each sends
// its next request only after the previous reply, like a caller of
// hunipud waiting on its response. It matches serve's worker count.
const clients = 2

// record is one Submit call of a pass.
type record struct {
	client     int
	start, end time.Duration // since the pass began
	res        *hunipu.Result
	err        error
}

// round is one barrier-separated slice of a pass.
type round struct {
	wall, cpu time.Duration
	requests  int
}

// pass is one closed-loop run over a request list.
type pass struct {
	records        []record
	spans          [][]span // per request; nil unless traced
	rounds         []round
	cache0, cache1 hunipu.ProgramCacheStats
	mem0, mem1     runtime.MemStats
}

// setup constructs a server and solves the warm-up list through it,
// checking every answer. The returned duration is setup_s for one
// repetition. The server has 2 workers, the default device ladder and
// no core.Options, so the program runs as shipped.
func setup(ctx context.Context, w workload, warm []request) (*serve.Server, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Config{Workers: clients, Shards: w.shards})
	if err != nil {
		return nil, 0, err
	}
	recs := drive(ctx, srv, warm, t0, 0, nil)
	d := time.Since(t0)
	for i, r := range recs {
		if err := check(warm[i], r); err != nil {
			stop(srv)
			return nil, 0, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return srv, d, nil
}

// stop drains the server and waits for its workers to exit.
func stop(srv *serve.Server) {
	if err := srv.Shutdown(context.Background()); err != nil {
		panic(fmt.Sprintf("perfbench: shutdown: %v", err))
	}
}

// drive submits reqs through srv from the closed-loop clients and
// returns one record per request, timed from origin. When spans is
// non-nil (a traced pass), each client records request i's span tree
// into spans[i] as soon as its Submit returns, numbering requests from
// first.
func drive(ctx context.Context, srv *serve.Server, reqs []request, origin time.Time, first int, spans [][]span) []record {
	recs := make([]record, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t := time.Now()
				res, err := srv.Submit(ctx, serve.Request{Costs: reqs[i].costs})
				recs[i] = record{client: c, start: t.Sub(origin), end: time.Since(origin), res: res, err: err}
				if spans != nil {
					spans[i] = spansOf(first+i, recs[i])
				}
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// measure runs one pass over reqs, split into rounds separated by a
// barrier so a short host disturbance spoils one round, not the pass.
// Counters are read right around the window, after a GC. A traced pass
// also keeps every request's spans.
func measure(ctx context.Context, srv *serve.Server, reqs []request, rounds int, traced bool) *pass {
	p := &pass{rounds: make([]round, 0, rounds)}
	if traced {
		p.spans = make([][]span, len(reqs))
	}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	p.cache0 = hunipu.ProgramCacheSnapshot()
	origin := time.Now()
	for r := 0; r < rounds; r++ {
		lo, hi := r*len(reqs)/rounds, (r+1)*len(reqs)/rounds
		var spans [][]span
		if traced {
			spans = p.spans[lo:hi]
		}
		c0, t0 := cpuTime(), time.Now()
		p.records = append(p.records, drive(ctx, srv, reqs[lo:hi], origin, lo, spans)...)
		p.rounds = append(p.rounds, round{wall: time.Since(t0), cpu: cpuTime() - c0, requests: hi - lo})
	}
	p.cache1 = hunipu.ProgramCacheSnapshot()
	runtime.ReadMemStats(&p.mem1)
	return p
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	return float64(rusage().Maxrss) * 1024 // Linux reports kilobytes
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return ru
}

// isShed reports whether err is one of serve's typed admission sheds.
func isShed(err error) bool {
	return errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrDeadlineTooShort) ||
		errors.Is(err, serve.ErrDraining) || errors.Is(err, serve.ErrNoDevice)
}

// check verifies one answer: no error, a permutation of the columns,
// a reported cost equal to the cost the assignment recomputes to, and
// that cost equal to the precomputed Jonker–Volgenant optimum.
func check(req request, r record) error {
	if r.err != nil {
		return r.err
	}
	n := len(req.costs)
	a := r.res.Assignment
	if len(a) != n {
		return fmt.Errorf("assignment has %d rows, want %d", len(a), n)
	}
	seen := make([]bool, n)
	var cost float64
	for i, j := range a {
		if j < 0 || j >= n || seen[j] {
			return fmt.Errorf("assignment %v is not a permutation", a)
		}
		seen[j] = true
		cost += req.costs[i][j]
	}
	// Costs are integers below 2^53 in total, so the sums are exact.
	if cost != r.res.Cost {
		return fmt.Errorf("reported cost %g, assignment recomputes to %g", r.res.Cost, cost)
	}
	if cost != req.optimum {
		return fmt.Errorf("cost %g, optimum is %g", cost, req.optimum)
	}
	return nil
}

// calibReps is how many times one calibration timing fills and sorts
// its slice.
const calibReps = 16

// calibrate times a fixed pure-Go loop (xorshift fill and radix sort of
// a fixed pseudo-random slice) and returns the median of three timings.
// It touches no program code: it tells host drift apart from a program
// change when two runs disagree.
func calibrate() time.Duration {
	var ts [3]time.Duration
	buf := make([]uint64, 1<<16)
	for k := range ts {
		t0 := time.Now()
		for rep := 0; rep < calibReps; rep++ {
			x := uint64(88172645463325252)
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] = x
			}
			radixSort(buf)
		}
		ts[k] = time.Since(t0)
	}
	return medianDur(ts[:])
}

// radixSort sorts keys in place, eight bits per pass.
func radixSort(keys []uint64) {
	tmp := make([]uint64, len(keys))
	for shift := uint(0); shift < 64; shift += 8 {
		var count [257]int
		for _, k := range keys {
			count[(k>>shift)&0xff+1]++
		}
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		for _, k := range keys {
			b := (k >> shift) & 0xff
			tmp[count[b]] = k
			count[b]++
		}
		keys, tmp = tmp, keys
	}
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(math.Round(median(xs)))
}
