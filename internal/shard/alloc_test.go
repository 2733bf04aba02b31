package shard

import (
	"context"
	"runtime"
	"testing"

	"hunipu/internal/datasets"
	"hunipu/internal/ipu"
	"hunipu/internal/poplar"
)

// TestShardSolveAllocBudget is the sharded solver's allocation ratchet:
// an n=128 solve on a 2-chip fabric under the default checksum guard
// (the sharded-guarded benchmark's shape). Cloning a fresh state for
// each of its 35 checkpoints cost about 4.96 MB and 454 mallocs per
// solve. Recycling the ring's evicted epochs and reusing step 5's path
// buffer leave the live state, the five ring buffers and the zero
// index: about 0.92 MB and 89 mallocs. The budgets keep headroom over
// that, and far under the cloning figures, so per-checkpoint copies
// cannot come back unnoticed.
func TestShardSolveAllocBudget(t *testing.T) {
	m, err := datasets.Gaussian(128, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	sv := mustSolver(t, Options{Config: ipu.MK2(), Devices: 2, Guard: poplar.GuardChecksums, Cache: NewPlanCache()})
	solve := func() {
		if _, err := sv.SolveShards(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	solve() // the first solve warms the plan cache
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6
	mallocs := (after.Mallocs - before.Mallocs) / runs
	const mbBudget, mallocBudget = 1.25, 130
	t.Logf("n=128 K=2 checksums solve: %.2f MB, %d mallocs (budget %v MB, %d)", mb, mallocs, mbBudget, mallocBudget)
	if mb > mbBudget {
		t.Errorf("solve allocates %.2f MB, budget %v MB: checkpoint buffers are no longer recycled", mb, mbBudget)
	}
	if mallocs > mallocBudget {
		t.Errorf("solve makes %d mallocs, budget %d", mallocs, mallocBudget)
	}
}
