package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hunipu"
)

func TestPercentileLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	v, beyond, err := percentile(xs, 90)
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v, %d beyond, %v; want 90, 10, nil", v, beyond, err)
	}
	if _, beyond, err := percentile(xs[:99], 90); err == nil {
		t.Fatalf("p90 of 99 samples leaves %d beyond, want an error", beyond)
	}
	if _, _, err := percentile(xs[:10], 90); err == nil {
		t.Fatal("p90 of 10 samples: want an error")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

// TestEveryWorkloadLeavesTenBeyondP90 pins that the shortest run still
// has enough requests for its reported 90th percentile.
func TestEveryWorkloadLeavesTenBeyondP90(t *testing.T) {
	for _, w := range workloads {
		if n := w.measured(1); n < minRequests {
			t.Errorf("%s: %d requests at --seconds 1, want ≥ %d", w.name, n, minRequests)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		check(s.name)
		if !unitRE.MatchString(s.unit) {
			t.Errorf("%s: unit %q does not match %s", s.name, s.unit, unitRE)
		}
		if s.better != "higher" && s.better != "lower" {
			t.Errorf("%s: better = %q", s.name, s.better)
		}
	}
	for _, w := range workloads {
		check(w.name)
	}
}

// TestSpecsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonMetric                 `json:"end_to_end"`
		PerLayer  []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != s.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", kind, i, g, s)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEndSpecs, true)
	compare("per_layer", b.PerLayer, perLayerSpecs, false)
}

// encode serializes a request list exactly: sizes, cost bits, optima.
func encode(reqs []request) []byte {
	var buf bytes.Buffer
	put := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	for _, r := range reqs {
		put(uint64(len(r.costs)))
		for _, row := range r.costs {
			for _, v := range row {
				put(math.Float64bits(v))
			}
		}
		put(math.Float64bits(r.optimum))
	}
	return buf.Bytes()
}

// TestRequestListReproducesFromSeed checks that a seed fixes the lists
// byte for byte, that another seed changes them, and pins the lists'
// digests so a change to input generation shows as a benchmark change.
func TestRequestListReproducesFromSeed(t *testing.T) {
	golden := map[string]string{
		"shape-churn":     "4df15f254a93cf3b",
		"sharded-guarded": "b69994154881258d",
	}
	for _, w := range workloads {
		w.warmup = 3
		digest := func(seed int64) string {
			warm, meas, err := w.generate(seed, 5)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(encode(append(warm, meas...)))
			return hex.EncodeToString(sum[:8])
		}
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave %s then %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same lists", w.name)
		}
		if a != golden[w.name] {
			t.Errorf("%s: seed 7 digest %s, pinned %s", w.name, a, golden[w.name])
		}
	}
}

func TestChurnSizesCoverRange(t *testing.T) {
	w, err := findWorkload("shape-churn")
	if err != nil {
		t.Fatal(err)
	}
	if w.minN != 16 || w.maxN != 80 {
		t.Fatalf("shape-churn sizes [%d, %d], want [16, 80]", w.minN, w.maxN)
	}
	warm, meas, err := w.generate(3, w.measured(30))
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]request{warm, meas} {
		counts := map[int]int{}
		for _, r := range list {
			counts[len(r.costs)]++
		}
		lo, hi := len(list), 0
		for n := 16; n <= 80; n++ {
			lo, hi = min(lo, counts[n]), max(hi, counts[n])
		}
		if len(counts) != 65 || lo < 1 || hi-lo > 1 {
			t.Errorf("%d requests cover %d sizes, %d to %d times each; want all 65, evenly", len(list), len(counts), lo, hi)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	tree := []span{
		{name: "a", parent: -1, start: 0, end: 10 * ms},
		{name: "b", parent: 0, start: 2 * ms, end: 9 * ms},
		{name: "c", parent: 1, start: 2 * ms, end: 4 * ms},
		{name: "c", parent: 1, start: 4 * ms, end: 12 * ms}, // overruns its parent
	}
	got := selfTimes([][]span{tree})
	if got["a"][0] != 3*ms || got["b"][0] != 0 || got["c"][0] != 2*ms || got["c"][1] != 8*ms {
		t.Fatalf("self times %v", got)
	}
}

// TestSmokeEachWorkload runs every workload at tiny sizes, untraced and
// traced, and checks the result line and the modeled digests.
func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			w.minN, w.maxN = min(w.minN, 6), min(w.maxN, 10)
			w.warmup = 4
			digests := map[bool]string{}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				cfg := runConfig{w: w, seed: 5, seconds: 1, traced: traced, setupReps: 2, rounds: 2, traceDir: t.TempDir()}
				res, err := runWorkload(context.Background(), cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != w.measured(1) {
					t.Fatalf("traced=%t: %+v\n%s", traced, res, out.String())
				}
				specs := endToEndSpecs
				if traced {
					specs = perLayerSpecs
				}
				if len(res.Metrics) != len(specs) {
					t.Fatalf("traced=%t: %d metrics, want %d", traced, len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%t: metric %s = %+v", traced, s.name, m)
					}
				}
				_, d, ok := strings.Cut(out.String(), "modeled_digest=")
				if !ok {
					t.Fatalf("traced=%t: no modeled digest in\n%s", traced, out.String())
				}
				digests[traced], _, _ = strings.Cut(d, "\n")
			}
			if digests[false] != digests[true] {
				t.Fatalf("modeled digest %s untraced, %s traced", digests[false], digests[true])
			}
		})
	}
}

// TestCheckRejectsWrongAnswers covers the correctness gate: a wrong
// answer is counted as failed, never as a solve.
func TestCheckRejectsWrongAnswers(t *testing.T) {
	req := request{costs: [][]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}, optimum: 5}
	answer := func(a []int, cost float64) record {
		return record{res: &hunipu.Result{Assignment: a, Cost: cost}}
	}
	if err := check(req, answer([]int{1, 0, 2}, 5)); err != nil {
		t.Fatalf("optimal answer rejected: %v", err)
	}
	for name, r := range map[string]record{
		"error":           {err: errors.New("boom")},
		"not permutation": answer([]int{1, 1, 2}, 3),
		"short":           answer([]int{1, 0}, 3),
		"cost misreports": answer([]int{1, 0, 2}, 4),
		"suboptimal":      answer([]int{0, 1, 2}, 6),
	} {
		if err := check(req, r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
