package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/datasets"
	"hunipu/internal/fastha"
	"hunipu/internal/ipuauction"
	"hunipu/internal/lsap"
)

// This file is the benchmark *trajectory* layer: a small reproducible
// suite whose results are serialized to a BENCH_NNNN.json file tracked
// in the repository, so every performance-focused PR leaves a
// measurable point on disk and "measurably faster" is checkable by
// diffing trajectory files instead of re-running old commits. The
// modeled cycle counts are exactly reproducible given the seed; the
// host-time fields (CPU ns, cold/warm latency, allocs) vary with the
// machine and are trend indicators, not assertions.

// TrajectorySchema identifies the file format; bump TrajectoryVersion
// on any breaking schema change so downstream diff tooling can reject
// files it does not understand.
const (
	TrajectorySchema = "hunipu-bench-trajectory"
	// Version 2 added the degradation-ladder columns (bounded_solve_ns,
	// bounded_gap, warm_start_solve_ns).
	TrajectoryVersion = 2
)

// TrajectoryID names the trajectory file this source tree emits.
// Convention: BENCH_<4-digit PR ordinal>, matching the PR that
// established (or last re-baselined) the measurement.
const TrajectoryID = "BENCH_0014"

// Trajectory is one recorded run of the suite. Field order is the
// serialization order (encoding/json emits struct fields in
// declaration order), so trajectory files are diffable byte-for-byte
// across PRs when the numbers do not move.
type Trajectory struct {
	// Schema and Version identify the file format.
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// ID is the trajectory name, e.g. "BENCH_0014".
	ID string `json:"id"`
	// Seed drove every workload generator.
	Seed int64 `json:"seed"`
	// WarmRuns is how many warm-cache solves each case averaged over.
	WarmRuns int `json:"warm_runs"`
	// Go is the toolchain that produced the host-time fields.
	Go string `json:"go"`
	// Cases are the per-workload measurements, in suite order.
	Cases []TrajectoryCase `json:"cases"`
}

// TrajectoryCase measures one (n, k) Gaussian workload on all three
// devices plus the compiled-program cache's cold/warm split.
type TrajectoryCase struct {
	// Name identifies the workload, e.g. "gaussian-n128-k500".
	Name string `json:"name"`
	// N is the matrix size, K the value-range multiplier.
	N int `json:"n"`
	K int `json:"k"`

	// IPUCycles is HunIPU's modeled total cycle count (compute +
	// exchange + sync + guard) and IPUModeledUS the modeled wall time.
	// Both are exactly reproducible given the seed.
	IPUCycles    int64 `json:"ipu_cycles"`
	IPUModeledUS int64 `json:"ipu_modeled_us"`
	// IPUSupersteps is the modeled BSP superstep count.
	IPUSupersteps int64 `json:"ipu_supersteps"`
	// GPUCycles / GPUModeledUS are the FastHA baseline's modeled cost.
	GPUCycles    int64 `json:"gpu_cycles"`
	GPUModeledUS int64 `json:"gpu_modeled_us"`
	// CPUNS is the real host time of the sequential JV baseline.
	CPUNS int64 `json:"cpu_ns"`

	// ColdSolveNS is the real host latency of the first HunIPU solve on
	// an empty program cache — graph construction + verification +
	// compilation + the solve itself. WarmSolveNS is the mean warm-cache
	// latency (upload + run + readback only) over WarmRuns solves.
	ColdSolveNS int64 `json:"cold_solve_ns"`
	WarmSolveNS int64 `json:"warm_solve_ns"`
	// AllocsPerSolve is the mean heap allocations of one warm solve.
	AllocsPerSolve int64 `json:"allocs_per_solve"`
	// WarmBuilds counts program builds triggered by the warm solves.
	// The compiled-program cache makes this 0 by construction; the CI
	// trajectory job fails if it ever rises.
	WarmBuilds int64 `json:"warm_builds"`

	// Degradation-ladder columns (since version 2; see DESIGN.md §5h).
	// BoundedSolveNS is the mean real latency of a Bounded(0.05) solve
	// on the IPU auction port, and BoundedGap the worst certified
	// normalized gap those solves attested (≤ 0.05 by contract).
	// WarmStartSolveNS is the same solve warm-started from a prior
	// solve's dual potentials. Both include per-solve program
	// construction — the auction port has no compiled-program cache
	// yet — so they bound the ladder's brownout win from above.
	BoundedSolveNS   int64   `json:"bounded_solve_ns"`
	BoundedGap       float64 `json:"bounded_gap"`
	WarmStartSolveNS int64   `json:"warm_start_solve_ns"`
}

// TrajectoryConfig scopes a trajectory run.
type TrajectoryConfig struct {
	// Sizes are the matrix sizes. Nil means {64, 128, 256}.
	Sizes []int
	// K is the value-range multiplier. 0 means 500 (the paper's middle
	// range).
	K int
	// Seed drives the generators. The committed baseline uses 1.
	Seed int64
	// WarmRuns is the warm-solve sample count per case. 0 means 8.
	WarmRuns int
	// HunIPU configures the IPU solver (zero value = Mk2 defaults).
	// Its Cache field is ignored: every case uses a private cache so
	// cold/warm measurements cannot be polluted by other work in the
	// process.
	HunIPU core.Options
	// Progress, when non-nil, receives one line per completed case.
	Progress func(string)
}

func (c TrajectoryConfig) withDefaults() TrajectoryConfig {
	if c.Sizes == nil {
		c.Sizes = []int{64, 128, 256}
	}
	if c.K == 0 {
		c.K = 500
	}
	if c.WarmRuns == 0 {
		c.WarmRuns = 8
	}
	return c
}

// RunTrajectory executes the suite and returns the recorded run.
// Every case cross-checks all three devices against the JV optimum
// before recording anything, so a trajectory file can never describe a
// run that produced wrong answers.
func RunTrajectory(cfg TrajectoryConfig) (*Trajectory, error) {
	cfg = cfg.withDefaults()
	tr := &Trajectory{
		Schema:   TrajectorySchema,
		Version:  TrajectoryVersion,
		ID:       TrajectoryID,
		Seed:     cfg.Seed,
		WarmRuns: cfg.WarmRuns,
		Go:       runtime.Version(),
	}
	gpuSolver, err := fastha.New(fastha.Options{})
	if err != nil {
		return nil, err
	}
	for _, n := range cfg.Sizes {
		m, err := datasets.Gaussian(n, cfg.K, cfg.Seed+int64(n)*31+int64(cfg.K))
		if err != nil {
			return nil, err
		}
		c, err := runTrajectoryCase(cfg, gpuSolver, n, m)
		if err != nil {
			return nil, fmt.Errorf("bench: trajectory n=%d: %w", n, err)
		}
		tr.Cases = append(tr.Cases, *c)
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("trajectory %s: cold=%v warm=%v ipu=%d cycles gpu=%d cycles",
				c.Name, time.Duration(c.ColdSolveNS), time.Duration(c.WarmSolveNS), c.IPUCycles, c.GPUCycles))
		}
	}
	return tr, nil
}

// runTrajectoryCase measures one workload.
func runTrajectoryCase(cfg TrajectoryConfig, gpuSolver *fastha.Solver, n int, m *lsap.Matrix) (*TrajectoryCase, error) {
	c := &TrajectoryCase{Name: fmt.Sprintf("gaussian-n%d-k%d", n, cfg.K), N: n, K: cfg.K}

	// CPU baseline (real host time) doubles as the correctness oracle.
	cpuStart := time.Now()
	ref, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		return nil, fmt.Errorf("CPU solve: %w", err)
	}
	c.CPUNS = time.Since(cpuStart).Nanoseconds()

	// GPU baseline (modeled cycles).
	gr, err := gpuSolver.SolvePadded(m)
	if err != nil {
		return nil, fmt.Errorf("FastHA solve: %w", err)
	}
	if gr.Solution.Cost != ref.Cost {
		return nil, fmt.Errorf("FastHA cost %g ≠ optimum %g", gr.Solution.Cost, ref.Cost)
	}
	c.GPUCycles = gr.Stats.Cycles
	c.GPUModeledUS = gr.Modeled.Microseconds()

	// HunIPU cold then warm, on a private single-shape cache so nothing
	// else in the process can pre-warm or evict the program under test.
	opts := cfg.HunIPU
	cache := core.NewProgramCache(1)
	opts.Cache = cache
	solver, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	coldStart := time.Now()
	hr, err := solver.SolveDetailed(m)
	if err != nil {
		return nil, fmt.Errorf("HunIPU cold solve: %w", err)
	}
	c.ColdSolveNS = time.Since(coldStart).Nanoseconds()
	if hr.Solution.Cost != ref.Cost {
		return nil, fmt.Errorf("HunIPU cost %g ≠ optimum %g", hr.Solution.Cost, ref.Cost)
	}
	c.IPUCycles = hr.Stats.TotalCycles()
	c.IPUModeledUS = hr.Modeled.Microseconds()
	c.IPUSupersteps = hr.Stats.Supersteps

	buildsBefore := cache.Stats().Builds
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	warmStart := time.Now()
	for i := 0; i < cfg.WarmRuns; i++ {
		wr, err := solver.SolveDetailed(m)
		if err != nil {
			return nil, fmt.Errorf("HunIPU warm solve %d: %w", i, err)
		}
		if wr.Solution.Cost != ref.Cost {
			return nil, fmt.Errorf("HunIPU warm solve %d cost %g ≠ optimum %g", i, wr.Solution.Cost, ref.Cost)
		}
		if !wr.Cached {
			c.WarmBuilds++ // also caught below via cache counters
		}
	}
	warm := time.Since(warmStart)
	runtime.ReadMemStats(&ms1)
	c.WarmSolveNS = warm.Nanoseconds() / int64(cfg.WarmRuns)
	c.AllocsPerSolve = int64(ms1.Mallocs-ms0.Mallocs) / int64(cfg.WarmRuns)
	if d := cache.Stats().Builds - buildsBefore; d > c.WarmBuilds {
		c.WarmBuilds = d
	}

	// Degradation-ladder columns: Bounded(0.05) on the IPU auction
	// port, cold-discarded then averaged like the warm runs, every
	// answer re-certified against the JV optimum; then the same solve
	// warm-started from the first bounded solve's dual potentials.
	const boundedEps = 0.05
	bSolver, err := ipuauction.New(ipuauction.Options{
		Config: opts.Config, Epsilon: boundedEps, MaxSupersteps: opts.MaxSupersteps,
	})
	if err != nil {
		return nil, err
	}
	certify := func(sol *lsap.Solution, what string) error {
		if sol.Gap > boundedEps {
			return fmt.Errorf("%s certified gap %g exceeds ε=%g", what, sol.Gap, boundedEps)
		}
		if g := lsap.NormalizedGap(sol.Cost, ref.Cost); g > boundedEps+1e-9 {
			return fmt.Errorf("%s true gap %g exceeds ε=%g", what, g, boundedEps)
		}
		if sol.Gap > c.BoundedGap {
			c.BoundedGap = sol.Gap
		}
		return nil
	}
	first, err := bSolver.Solve(m)
	if err != nil {
		return nil, fmt.Errorf("bounded cold solve: %w", err)
	}
	if err := certify(first, "bounded cold solve"); err != nil {
		return nil, err
	}
	boundedStart := time.Now()
	for i := 0; i < cfg.WarmRuns; i++ {
		sol, err := bSolver.Solve(m)
		if err != nil {
			return nil, fmt.Errorf("bounded solve %d: %w", i, err)
		}
		if err := certify(sol, fmt.Sprintf("bounded solve %d", i)); err != nil {
			return nil, err
		}
	}
	c.BoundedSolveNS = time.Since(boundedStart).Nanoseconds() / int64(cfg.WarmRuns)

	if first.Potentials == nil {
		return nil, fmt.Errorf("bounded solve returned no dual potentials to warm-start from")
	}
	warmPrices := make([]float64, m.N)
	for j, v := range first.Potentials.V {
		warmPrices[j] = -v
	}
	wSolver, err := ipuauction.New(ipuauction.Options{
		Config: opts.Config, Epsilon: boundedEps, MaxSupersteps: opts.MaxSupersteps,
		WarmPrices: warmPrices,
	})
	if err != nil {
		return nil, err
	}
	if sol, err := wSolver.Solve(m); err != nil {
		return nil, fmt.Errorf("warm-started cold solve: %w", err)
	} else if err := certify(sol, "warm-started cold solve"); err != nil {
		return nil, err
	}
	warmStartStart := time.Now()
	for i := 0; i < cfg.WarmRuns; i++ {
		sol, err := wSolver.Solve(m)
		if err != nil {
			return nil, fmt.Errorf("warm-started solve %d: %w", i, err)
		}
		if err := certify(sol, fmt.Sprintf("warm-started solve %d", i)); err != nil {
			return nil, err
		}
	}
	c.WarmStartSolveNS = time.Since(warmStartStart).Nanoseconds() / int64(cfg.WarmRuns)
	return c, nil
}

// EncodeJSON serializes the trajectory with deterministic field
// ordering and a trailing newline, ready to commit.
func (t *Trajectory) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeTrajectory parses a trajectory file, rejecting unknown schemas
// and versions newer than this tree understands.
func DecodeTrajectory(data []byte) (*Trajectory, error) {
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("bench: trajectory decode: %w", err)
	}
	if t.Schema != TrajectorySchema {
		return nil, fmt.Errorf("bench: trajectory schema %q, want %q", t.Schema, TrajectorySchema)
	}
	if t.Version > TrajectoryVersion {
		return nil, fmt.Errorf("bench: trajectory version %d newer than supported %d", t.Version, TrajectoryVersion)
	}
	return &t, nil
}

// CheckWarmCache validates the invariant the CI trajectory job
// enforces: warm-cache solves never pay graph construction.
func (t *Trajectory) CheckWarmCache() error {
	for _, c := range t.Cases {
		if c.WarmBuilds != 0 {
			return fmt.Errorf("bench: case %s paid %d program builds on warm-cache solves, want 0", c.Name, c.WarmBuilds)
		}
	}
	return nil
}
