package shard

import (
	"sync"

	"hunipu/internal/ipu"
	"hunipu/internal/poplar"
)

// Span is a half-open row range [Lo, Hi) of the cost matrix owned by
// one chip.
type Span struct{ Lo, Hi int }

// Len returns the number of rows in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// Plan is the immutable sharding layout for one (problem size, fabric
// topology) pair: which chip owns which row block. Plans are what the
// cache hands out, so two solves with the same topology share one plan
// and two solves with different topologies never do.
type Plan struct {
	// N is the problem size the plan partitions.
	N int
	// Devices is the fabric size the plan spreads the rows over.
	Devices int
	// Ranges[d] is the row block of chip d. Balanced: sizes differ by
	// at most one row, lower chips take the extra rows.
	Ranges []Span
}

// partition spreads n rows over k chips, balanced, in chip order.
func partition(n, k int) []Span {
	spans := make([]Span, k)
	base, extra := n/k, n%k
	lo := 0
	for d := 0; d < k; d++ {
		rows := base
		if d < extra {
			rows++
		}
		spans[d] = Span{Lo: lo, Hi: lo + rows}
		lo += rows
	}
	return spans
}

// planKey identifies one shard topology: the problem size, the fabric
// size, the per-chip shape that constrains the layout, and the guard
// policy the fabric runs under. Two solves agree on a plan only when
// every key field matches — in particular, a guarded fabric (whose
// compiled collectives carry frame checksums) never shares a plan with
// an unguarded one, even though the row partition happens to coincide.
type planKey struct {
	n       int
	devices int
	tiles   int
	mem     int
	name    string
	guard   poplar.GuardPolicy
}

// PlanCache memoises sharding plans per topology, the shard-level
// counterpart of core's compiled-program cache: a warm solve reuses the
// plan computed by the first solve with the same topology, and solves
// with different topologies are guaranteed distinct plans because the
// topology is the cache key.
type PlanCache struct {
	mu     sync.Mutex
	plans  map[planKey]*Plan
	hits   int64
	misses int64
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: map[planKey]*Plan{}}
}

// DefaultCache is the process-wide plan cache used when Options.Cache
// is nil, so repeated hunipu.Solve calls go warm across call sites.
var DefaultCache = NewPlanCache()

// PlanFor returns the plan for an n-row problem over a k-chip fabric of
// the given per-chip configuration under the given guard policy,
// computing and caching it on first use, and reports whether this
// lookup hit the cache. The returned plan is shared and must not be
// mutated.
func (pc *PlanCache) PlanFor(n, k int, cfg ipu.Config, guard poplar.GuardPolicy) (*Plan, bool) {
	key := planKey{n: n, devices: k, tiles: cfg.TilesPerIPU, mem: cfg.TileMemory, name: cfg.Name, guard: guard}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p, ok := pc.plans[key]; ok {
		pc.hits++
		return p, true
	}
	pc.misses++
	p := &Plan{N: n, Devices: k, Ranges: partition(n, k)}
	pc.plans[key] = p
	return p, false
}

// CacheSnapshot is a point-in-time view of cache counters.
type CacheSnapshot struct {
	Hits, Misses, Size int64
}

// Snapshot returns the cache counters.
func (pc *PlanCache) Snapshot() CacheSnapshot {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheSnapshot{Hits: pc.hits, Misses: pc.misses, Size: int64(len(pc.plans))}
}
