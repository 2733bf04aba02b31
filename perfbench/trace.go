package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// Span names, one per layer boundary the benchmark can see from outside
// the program.
const (
	spanSubmit  = "serve.submit"   // Submit call: admission, queue, worker handoff
	spanSolve   = "hunipu.solve"   // Result.Wall
	spanAttempt = "hunipu.attempt" // Report.Attempts[i].Wall
	spanAcquire = "core.acquire"   // IPUDetail.CompileHost
	spanRun     = "core.run"       // attempt wall minus CompileHost
	spanShard   = "shard.solve"    // a sharded attempt's wall
)

// span is one timed interval of one request. Parent indexes the
// request's span slice (-1 for the root).
type span struct {
	name       string
	req        int
	client     int
	parent     int
	start, end time.Duration // since the pass began
}

// spansOf rebuilds request i's span tree from the timings its Result
// carries. The solve ends when Submit returns and began Result.Wall
// earlier; attempts run back to back from the solve's start, and an
// IPU attempt acquires its program before it runs.
func spansOf(i int, r record) []span {
	root := span{name: spanSubmit, req: i, client: r.client, parent: -1, start: r.start, end: r.end}
	out := []span{root}
	if r.res == nil {
		return out
	}
	add := func(name string, parent int, start, end time.Duration) int {
		out = append(out, span{name: name, req: i, client: r.client, parent: parent, start: start, end: end})
		return len(out) - 1
	}
	solveStart := r.end - r.res.Wall
	if solveStart < r.start {
		solveStart = r.start
	}
	solve := add(spanSolve, 0, solveStart, r.end)
	t := solveStart
	for _, a := range r.res.Report.Attempts {
		att := add(spanAttempt, solve, t, t+a.Wall)
		switch {
		case a.IPUDetail != nil:
			acq := t + a.IPUDetail.CompileHost
			add(spanAcquire, att, t, acq)
			add(spanRun, att, acq, t+a.Wall)
		case a.ShardDetail != nil:
			add(spanShard, att, t, t+a.Wall)
		}
		t += a.Wall
	}
	return out
}

// selfTimes returns, per span name, each span's self time: its
// duration minus the part of it its children cover. trees holds one
// request's spans per element, parents indexing within it. Children of
// one span never overlap, so the covered part is the sum of their
// durations clipped to the parent.
func selfTimes(trees [][]span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, spans := range trees {
		covered := make([]time.Duration, len(spans))
		for _, s := range spans {
			if s.parent < 0 {
				continue
			}
			p := spans[s.parent]
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if hi > lo {
				covered[s.parent] += hi - lo
			}
		}
		for i, s := range spans {
			out[s.name] = append(out[s.name], max(s.end-s.start-covered[i], 0))
		}
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeTrace writes every request's spans as Chrome trace-event JSON,
// one thread per client so each request's spans nest on its client's
// row.
func writeTrace(path string, trees [][]span) error {
	var evs []traceEvent
	for _, s := range slices.Concat(trees...) {
		evs = append(evs, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.client,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"request": s.req},
		})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Ts < evs[b].Ts })
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
