package main

import (
	"fmt"
	"math"
	"math/rand"

	"hunipu/internal/cpuhung"
	"hunipu/internal/datasets"
)

// valueRange is the paper's value-range multiplier k: every cost is an
// integer in [1, k·n] drawn from N(k·n/2, (k·n/6)²).
const valueRange = 500

// minRequests keeps at least ten latency samples beyond the reported
// 90th percentile (see percentile).
const minRequests = 100

// workload is one fixed, seeded request mix driven through the server.
type workload struct {
	name string
	why  string
	// minN and maxN bound the matrix size; each request draws n
	// uniformly from [minN, maxN].
	minN, maxN int
	// shards > 0 runs every IPU attempt on a fabric of that many chips
	// (serve.Config.Shards), which arms the sharded default guard.
	shards int
	// perSecond is the number of measured requests per second of
	// --seconds. It is a constant, so every run of a workload at a
	// given --seconds does identical work; it was sized so the window
	// lasts about --seconds on a 2-core x86-64 host.
	perSecond float64
	// warmup is the length of the warm-up list solved inside setup_s.
	warmup int
}

// workloads are the benchmark's request mixes. A same-shape workload
// (every request n=128, warm cache, two workers queueing on one
// compiled program's lock) is left out: on a shared 2-core host three
// workloads fit the benchmark's total time budget only at 30-second
// runs, too short to keep the sharded workload's spread well inside its
// bound.
var workloads = []workload{
	{
		name:      "shape-churn",
		why:       "n uniform in [16,80]: 65 shapes against the 16-entry program LRU, so graph build, verify and compile run on most requests",
		minN:      16,
		maxN:      80,
		perSecond: 90,
		warmup:    65,
	},
	{
		name:      "sharded-guarded",
		why:       "n=128 on a 2-chip fabric with the default checksum guard: internal/shard's host-side Munkres does the work",
		minN:      128,
		maxN:      128,
		shards:    2,
		perSecond: 36,
		warmup:    24,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// measured is the number of requests in the measured list for a run of
// the given length.
func (w workload) measured(seconds int) int {
	n := int(math.Ceil(w.perSecond * float64(seconds)))
	if n < minRequests {
		n = minRequests
	}
	return n
}

// request is one generated matrix and its precomputed optimum.
type request struct {
	costs   [][]float64
	optimum float64
}

// generate draws the warm-up list and then the measured list from one
// seeded stream. Each list's sizes are a shuffle of [minN, maxN] repeated
// evenly, so each request's n is uniform over the range, as with
// independent draws, while every run solves the same mix of sizes. Each
// request gets its own matrix seed, so values are distinct per request;
// the same seed always yields the same lists.
func (w workload) generate(seed int64, measured int) (warm, meas []request, err error) {
	rng := rand.New(rand.NewSource(seed))
	all := make([]request, w.warmup+measured)
	sizes := append(w.sizes(rng, w.warmup), w.sizes(rng, measured)...)
	for i := range all {
		n := sizes[i]
		m, err := datasets.Gaussian(n, valueRange, rng.Int63())
		if err != nil {
			return nil, nil, err
		}
		sol, err := cpuhung.JV{}.Solve(m)
		if err != nil {
			return nil, nil, fmt.Errorf("optimum of request %d: %w", i, err)
		}
		rows := make([][]float64, n)
		for r := range rows {
			rows[r] = m.Row(r)
		}
		all[i] = request{costs: rows, optimum: sol.Cost}
	}
	return all[:w.warmup], all[w.warmup:], nil
}

// sizes returns count sizes covering [minN, maxN] as evenly as count
// allows, in shuffled order.
func (w workload) sizes(rng *rand.Rand, count int) []int {
	span := w.maxN - w.minN + 1
	out := make([]int, count)
	for k := range out {
		out[k] = w.minN + k%span
	}
	rng.Shuffle(count, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}
