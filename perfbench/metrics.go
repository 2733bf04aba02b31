package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestSpecsMatchBenchmarkJSON).
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share of the median
}

var endToEndSpecs = []metricSpec{
	{"solves_per_s", "1/s", "higher", 0.24},
	{"latency_ms_p50", "ms", "lower", 0.24},
	{"latency_ms_p90", "ms", "lower", 0.24},
	{"cpu_ms_per_solve", "ms", "lower", 0.24},
	{"modeled_us_per_solve", "us", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

var perLayerSpecs = []metricSpec{
	{name: "serve.queue_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.shed_share", unit: "1", better: "lower"},
	{name: "hunipu.overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "hunipu.attempts_per_solve", unit: "count", better: "lower"},
	{name: "core.acquire_ms_p50", unit: "ms", better: "lower"},
	{name: "core.build_ms_p50", unit: "ms", better: "lower"},
	{name: "core.run_ms_p50", unit: "ms", better: "lower"},
	{name: "core.builds_per_solve", unit: "count", better: "lower"},
	{name: "core.cache_hit_share", unit: "1", better: "higher"},
	{name: "core.evictions_per_solve", unit: "count", better: "lower"},
	{name: "poplar.host_ns_per_superstep", unit: "ns", better: "lower"},
	{name: "ipu.supersteps_per_solve", unit: "count", better: "lower"},
	{name: "ipu.compute_cycles_per_solve", unit: "cycles", better: "lower"},
	{name: "ipu.sync_cycles_per_solve", unit: "cycles", better: "lower"},
	{name: "ipu.exchange_cycles_per_solve", unit: "cycles", better: "lower"},
	{name: "ipu.guard_cycles_per_solve", unit: "cycles", better: "lower"},
	{name: "ipu.bytes_exchanged_per_solve", unit: "B", better: "lower"},
	{name: "ipu.vertices_per_solve", unit: "count", better: "lower"},
	{name: "shard.solve_ms_p50", unit: "ms", better: "lower"},
	{name: "shard.host_ns_per_superstep", unit: "ns", better: "lower"},
	{name: "shard.supersteps_per_solve", unit: "count", better: "lower"},
	{name: "shard.modeled_cycles_per_solve", unit: "cycles", better: "lower"},
	{name: "shard.guard_cycles_per_solve", unit: "cycles", better: "lower"},
	{name: "shard.checkpoints_per_solve", unit: "count", better: "lower"},
	{name: "shard.plan_hit_share", unit: "1", better: "higher"},
	{name: "runtime.allocs_per_solve", unit: "count", better: "lower"},
	{name: "runtime.alloc_mb_per_solve", unit: "MB", better: "lower"},
	{name: "runtime.gc_cycles_per_solve", unit: "count", better: "lower"},
	{name: "host.calib_ms", unit: "ms", better: "lower"},
	{name: "trace.solves_per_s", unit: "1/s", better: "higher"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// fill sets every spec's value from vals; a spec missing from vals is
// a bug in the benchmark.
func fill(specs []metricSpec, vals map[string]float64) metrics {
	out := metrics{}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			panic(fmt.Sprintf("perfbench: metric %s not computed", s.name))
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianMs(ds []time.Duration) float64 { return ms(medianDur(ds)) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally is the checked outcome of one pass.
type tally struct {
	ok     []bool // per request: answered and correct
	solves int
	failed int
	sheds  int
}

func tallyPass(reqs []request, p *pass) (tally, []error) {
	t := tally{ok: make([]bool, len(p.records))}
	var errs []error
	for i, r := range p.records {
		if err := check(reqs[i], r); err != nil {
			t.failed++
			if isShed(r.err) {
				t.sheds++
			}
			errs = append(errs, fmt.Errorf("request %d: %w", i, err))
			continue
		}
		t.ok[i] = true
		t.solves++
	}
	return t, errs
}

// endToEnd computes the user-visible metrics of an untraced pass.
// Throughput and CPU cost are medians over the pass's rounds; latency
// percentiles pool every request, a failed one counting as infinitely
// slow. beyondP90 is the sample count past the reported p90.
func endToEnd(p *pass, t tally, setups []time.Duration) (map[string]float64, int, error) {
	lat := make([]float64, len(p.records))
	var modeled time.Duration
	for i, r := range p.records {
		lat[i] = math.Inf(1)
		if t.ok[i] {
			lat[i] = ms(r.end - r.start)
			modeled += r.res.Modeled
		}
	}
	p90, beyond, err := percentile(lat, 90)
	if err != nil {
		return nil, 0, err
	}
	rate, cpu := roundMedians(p, t)
	return map[string]float64{
		"solves_per_s":         rate,
		"latency_ms_p50":       median(lat),
		"latency_ms_p90":       p90,
		"cpu_ms_per_solve":     cpu,
		"modeled_us_per_solve": ratio(float64(modeled)/1e3, float64(t.solves)),
		"setup_s":              medianDur(setups).Seconds(),
		"peak_rss_mb":          peakRSS() / 1e6,
	}, beyond, nil
}

// roundMedians returns the median over a pass's rounds of correct
// solves per second and of CPU milliseconds per correct solve.
func roundMedians(p *pass, t tally) (rate, cpu float64) {
	var cpus []float64
	lo := 0
	for _, rd := range p.rounds {
		cpus = append(cpus, ratio(ms(rd.cpu), float64(countOK(t.ok[lo:lo+rd.requests]))))
		lo += rd.requests
	}
	return median(roundRates(p, t)), median(cpus)
}

// roundRates returns each round's correct solves per second.
func roundRates(p *pass, t tally) []float64 {
	var rates []float64
	lo := 0
	for _, rd := range p.rounds {
		rates = append(rates, float64(countOK(t.ok[lo:lo+rd.requests]))/rd.wall.Seconds())
		lo += rd.requests
	}
	return rates
}

func countOK(ok []bool) int {
	n := 0
	for _, o := range ok {
		if o {
			n++
		}
	}
	return n
}

// perLayer computes the per-layer metrics of a traced pass from its
// spans and from the counters the program returns. rate is the pass's
// solves_per_s: set against the untraced runs' median, it gives the
// tracing overhead.
func perLayer(p *pass, t tally, calib time.Duration, rate float64) map[string]float64 {
	self := selfTimes(p.spans)
	solves := float64(t.solves)
	var (
		attempts, supersteps                          float64
		runNs, shardNs, shardSteps, shardCycles       float64
		shardGuard, shardCkpt, shardAttempts, planHit float64
		ipu                                           [7]float64
		builds                                        []time.Duration
	)
	for _, r := range p.records {
		if r.res == nil {
			continue
		}
		for _, a := range r.res.Report.Attempts {
			attempts++
			if d := a.IPUDetail; d != nil {
				if !d.Cached {
					builds = append(builds, d.CompileHost)
				}
				runNs += float64(a.Wall - d.CompileHost)
				s := d.Stats
				supersteps += float64(s.Supersteps)
				for k, v := range []int64{s.Supersteps, s.ComputeCycles, s.SyncCycles, s.ExchangeCycles, s.GuardCycles, s.BytesExchanged, s.VerticesRun} {
					ipu[k] += float64(v)
				}
			}
			if d := a.ShardDetail; d != nil {
				shardAttempts++
				shardNs += float64(a.Wall)
				shardSteps += float64(d.Supersteps)
				shardCycles += float64(d.ModeledCycles)
				shardCkpt += float64(d.Checkpoints)
				for _, s := range d.PerDevice {
					shardGuard += float64(s.GuardCycles)
				}
				if d.CachedPlan {
					planHit++
				}
			}
		}
	}
	hits := float64(p.cache1.Hits - p.cache0.Hits)
	misses := float64(p.cache1.Misses - p.cache0.Misses)
	return map[string]float64{
		"serve.queue_wait_ms_p50":        medianMs(self[spanSubmit]),
		"serve.shed_share":               ratio(float64(t.sheds), float64(len(p.records))),
		"hunipu.overhead_ms_p50":         medianMs(self[spanSolve]),
		"hunipu.attempts_per_solve":      ratio(attempts, solves),
		"core.acquire_ms_p50":            medianMs(self[spanAcquire]),
		"core.build_ms_p50":              medianMs(builds),
		"core.run_ms_p50":                medianMs(self[spanRun]),
		"core.builds_per_solve":          ratio(float64(p.cache1.Builds-p.cache0.Builds), solves),
		"core.cache_hit_share":           ratio(hits, hits+misses),
		"core.evictions_per_solve":       ratio(float64(p.cache1.Evictions-p.cache0.Evictions), solves),
		"poplar.host_ns_per_superstep":   ratio(runNs, supersteps),
		"ipu.supersteps_per_solve":       ratio(ipu[0], solves),
		"ipu.compute_cycles_per_solve":   ratio(ipu[1], solves),
		"ipu.sync_cycles_per_solve":      ratio(ipu[2], solves),
		"ipu.exchange_cycles_per_solve":  ratio(ipu[3], solves),
		"ipu.guard_cycles_per_solve":     ratio(ipu[4], solves),
		"ipu.bytes_exchanged_per_solve":  ratio(ipu[5], solves),
		"ipu.vertices_per_solve":         ratio(ipu[6], solves),
		"shard.solve_ms_p50":             medianMs(self[spanShard]),
		"shard.host_ns_per_superstep":    ratio(shardNs, shardSteps),
		"shard.supersteps_per_solve":     ratio(shardSteps, solves),
		"shard.modeled_cycles_per_solve": ratio(shardCycles, solves),
		"shard.guard_cycles_per_solve":   ratio(shardGuard, solves),
		"shard.checkpoints_per_solve":    ratio(shardCkpt, solves),
		"shard.plan_hit_share":           ratio(planHit, shardAttempts),
		"runtime.allocs_per_solve":       ratio(float64(p.mem1.Mallocs-p.mem0.Mallocs), solves),
		"runtime.alloc_mb_per_solve":     ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/1e6, solves),
		"runtime.gc_cycles_per_solve":    ratio(float64(p.mem1.NumGC-p.mem0.NumGC), solves),
		"host.calib_ms":                  ms(calib),
		"trace.solves_per_s":             rate,
	}
}

// modeledDigest hashes every request's modeled key in list order.
func modeledDigest(p *pass) string {
	h := sha256.New()
	for _, r := range p.records {
		fmt.Fprintln(h, modeledKey(r))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// modeledKey is everything about request i's solve that the simulated
// devices determine: it must not depend on tracing, timing or cache
// state.
func modeledKey(r record) string {
	if r.res == nil {
		return "no result"
	}
	key := fmt.Sprint(r.res.Modeled)
	for _, a := range r.res.Report.Attempts {
		if d := a.IPUDetail; d != nil {
			key += fmt.Sprintf(" ipu%+v", d.Stats)
		}
		if d := a.ShardDetail; d != nil {
			key += fmt.Sprintf(" shard%d/%d/%d%+v", d.Supersteps, d.ModeledCycles, d.Checkpoints, d.PerDevice)
		}
	}
	return key
}
