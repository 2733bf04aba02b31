// Package shard solves the LSAP over a fabric of K simulated IPUs by
// row-block sharding the Hungarian algorithm, designed failure-first:
// losing a chip mid-solve is a modeled, recoverable event rather than a
// crash.
//
// The supervisor (host) holds the authoritative algorithm state and
// runs the same six Munkres steps as the CPU baseline, but every step
// is executed as a lockstep fabric superstep: each chip scans only its
// own row block, partial results (column minima, zero candidates, the
// uncovered minimum δ) are gathered to a root chip and the reduction is
// broadcast back — with every byte that crosses chips charged against
// ipu.Config.InterIPUBytesPerCycle, so the IPU-Link is a measured cost,
// not an abstraction.
//
// Failure model. The shared fault schedule is consulted per chip, in
// ascending chip order, at every superstep and host transfer. Announced
// faults split two ways:
//
//   - Transient (linkloss, exchange, stall): every shard rolls back to
//     the last globally consistent superstep checkpoint — a cross-device
//     barrier snapshot of duals, slack, matching and covers — and the
//     solve resumes. Rollbacks are bounded by MaxRetries.
//   - Fatal (deviceloss, reset, memory): the chip is treated as lost
//     for the remainder of the solve. The supervisor re-shards the rows
//     over the K−1 survivors, restores the checkpoint, charges the
//     re-upload, and resumes — or, once the fabric shrinks below
//     MinDevices, fails with a typed *FabricError that wraps the fault
//     so callers (and the chaos harness) classify it exactly as any
//     other injected fault.
//
// Silent fault classes are in scope when Options.Guard arms the fabric
// guard layer (see guard.go): collective frames carry checksums and are
// retransmitted on mismatch, each shard's device-resident row block is
// probed at guard cadence against incremental checksums and the
// supervisor's held duals, and a shard that keeps failing probes — or
// exhausts its retransmit budget — is Byzantine-classified, quarantined
// out of the fabric, and its rows re-sharded over the survivors with a
// certified rollback to the newest checkpoint predating the first
// detection. At GuardOff the layer (final attestation included) is
// disabled, so silent corruption can reach the caller — the measured
// control the chaos harness uses; hunipu's public surface therefore
// defaults sharded solves to GuardChecksums.
//
// Device superstep clocks stay monotone across rollback and re-shard,
// so one-shot schedule rules never refire on a replayed prefix (the
// same convention the single-device recovery path follows).
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// DefaultMaxRetries is the rollback budget when Options.MaxRetries is
// zero: transient faults beyond this many checkpoint restores turn into
// a typed *FabricError.
const DefaultMaxRetries = 16

// DefaultCheckpointEvery is the checkpoint cadence in fabric supersteps
// when Options.CheckpointEvery is zero. Shorter than the single-device
// default because a fabric loses more work per rollback: every chip
// rewinds together.
const DefaultCheckpointEvery = 8

// Options configures a sharded solver.
type Options struct {
	// Config describes one chip of the fabric. Its IPUs field is
	// ignored (each fabric member is one chip); the zero value means
	// ipu.MK2().
	Config ipu.Config
	// Devices is the fabric size K (≥ 1; 0 means 1).
	Devices int
	// MinDevices is the smallest fabric the solve may continue on after
	// chip losses (default 1). Below it the solve fails typed.
	MinDevices int
	// Fault is the shared fault injector consulted by every chip
	// (nil = no injection). Schedules with device= predicates target
	// individual chips by their fabric index.
	Fault faultinject.Injector
	// MaxRetries bounds checkpoint rollbacks for transient faults
	// (0 = DefaultMaxRetries, negative = no retries).
	MaxRetries int
	// CheckpointEvery is the checkpoint cadence in fabric supersteps
	// (0 = DefaultCheckpointEvery).
	CheckpointEvery int64
	// MaxSupersteps bounds a single attempt's supersteps as a watchdog
	// against fault-wedged loops (0 = a generous size-derived budget).
	MaxSupersteps int64
	// Cache is the plan cache to use (nil = DefaultCache).
	Cache *PlanCache
	// Guard selects the fabric guard policy for silent-corruption
	// tolerance: checksummed collectives with bounded retransmit, per-
	// shard block probes, quarantine-based re-sharding, and final
	// attestation. The zero value is poplar.GuardOff — everything off,
	// attestation included — which is the deliberate unguarded control;
	// package hunipu resolves sharded solves to GuardChecksums unless
	// the caller explicitly opts out.
	Guard poplar.GuardPolicy
	// MaxRetransmits bounds per-frame retransmit attempts for checksum-
	// detected frame corruption before the sender is quarantined
	// (0 = DefaultMaxRetransmits, negative = no retransmits).
	MaxRetransmits int
}

// Solver is a sharded HunIPU solver. It implements lsap.ContextSolver;
// Solve and SolveContext are safe for concurrent use — each call builds
// its own fabric — though calls sharing one fault Schedule share its
// fire counters, as they would on real shared hardware.
type Solver struct {
	cfg        ipu.Config
	devices    int
	minDevices int
	fault      faultinject.Injector
	maxRetries int
	ckptEvery  int64
	maxSteps   int64
	cache      *PlanCache
	guard      poplar.GuardPolicy
	maxRetx    int
}

// New validates the options and returns a solver.
func New(opts Options) (*Solver, error) {
	cfg := opts.Config
	if cfg == (ipu.Config{}) {
		cfg = ipu.MK2()
	}
	cfg.IPUs = 1
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := opts.Devices
	if k == 0 {
		k = 1
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: Devices = %d, want ≥ 1", opts.Devices)
	}
	if k > 1 && cfg.InterIPUBytesPerCycle <= 0 {
		return nil, fmt.Errorf("shard: InterIPUBytesPerCycle = %g with %d devices, want > 0",
			cfg.InterIPUBytesPerCycle, k)
	}
	min := opts.MinDevices
	if min == 0 {
		min = 1
	}
	if min < 1 || min > k {
		return nil, fmt.Errorf("shard: MinDevices = %d, want in [1, %d]", opts.MinDevices, k)
	}
	retries := opts.MaxRetries
	switch {
	case retries == 0:
		retries = DefaultMaxRetries
	case retries < 0:
		retries = 0
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	cache := opts.Cache
	if cache == nil {
		cache = DefaultCache
	}
	if opts.Guard < poplar.GuardOff || opts.Guard > poplar.GuardParanoid {
		return nil, fmt.Errorf("shard: unknown guard policy %d", opts.Guard)
	}
	retx := opts.MaxRetransmits
	switch {
	case retx == 0:
		retx = DefaultMaxRetransmits
	case retx < 0:
		retx = 0
	}
	return &Solver{
		cfg:        cfg,
		devices:    k,
		minDevices: min,
		fault:      opts.Fault,
		maxRetries: retries,
		ckptEvery:  every,
		maxSteps:   opts.MaxSupersteps,
		cache:      cache,
		guard:      opts.Guard,
		maxRetx:    retx,
	}, nil
}

// Name implements lsap.Solver.
func (sv *Solver) Name() string { return fmt.Sprintf("HunIPU-shard%d", sv.devices) }

// Config returns the resolved per-chip configuration.
func (sv *Solver) Config() ipu.Config { return sv.cfg }

// Solve implements lsap.Solver.
func (sv *Solver) Solve(c *lsap.Matrix) (*lsap.Solution, error) {
	return sv.SolveContext(context.Background(), c)
}

// SolveContext implements lsap.ContextSolver.
func (sv *Solver) SolveContext(ctx context.Context, c *lsap.Matrix) (*lsap.Solution, error) {
	res, err := sv.SolveShards(ctx, c)
	if err != nil {
		return nil, err
	}
	return res.Solution, nil
}

// ReshardEpoch records one live re-sharding: which chip was lost, at
// which fabric superstep, and how many survivors the rows were spread
// back over.
type ReshardEpoch struct {
	// Superstep is the fabric superstep count when the loss was
	// detected.
	Superstep int64
	// Lost is the fabric index of the lost chip.
	Lost int
	// Survivors is the fabric size after the loss.
	Survivors int
	// Quarantined reports whether the chip was removed by the guard
	// layer (Byzantine classification: repeated probe failures or
	// retransmit exhaustion) rather than by an announced fatal fault.
	Quarantined bool
}

// Result is the full report of one sharded solve. It is returned (with
// whatever progress was made) alongside the error when the solve fails,
// so callers can surface lost devices and re-shard epochs either way.
type Result struct {
	// Solution is the certified solution (nil on failure). Its
	// Potentials carry the solver's own optimality certificate.
	Solution *lsap.Solution
	// Devices is the fabric size the solve started with.
	Devices int
	// Survivors is the live fabric size at the end.
	Survivors int
	// LostDevices lists fabric indices lost mid-solve, in loss order.
	LostDevices []int
	// Reshards records each live re-sharding.
	Reshards []ReshardEpoch
	// Rollbacks counts checkpoint restores, whether for announced
	// transient faults or guard-detected corruption.
	Rollbacks int
	// Checkpoints counts cross-device barrier snapshots taken.
	Checkpoints int
	// Faults counts injected faults the fabric observed.
	Faults int
	// GuardTrips counts guard detections: bad collective frames
	// (including corrupted retries), block checksum mismatches,
	// invariant probe failures, and attestation failures.
	GuardTrips int
	// Retransmits counts collective frames moved again after a
	// checksum-detected corruption, each re-priced at the IPU-Link
	// rate.
	Retransmits int
	// RollbackEpochs counts checkpoint epochs discarded as poisoned
	// during certified rollback.
	RollbackEpochs int
	// DetectionLatency is the worst-case supersteps between a silent
	// injection landing in live state and its detection (0 when nothing
	// silent was caught).
	DetectionLatency int64
	// Quarantined lists fabric indices removed by the guard layer, in
	// quarantine order (a subset of LostDevices).
	Quarantined []int
	// Supersteps is the total fabric superstep count, monotone across
	// rollbacks and re-shards.
	Supersteps int64
	// PerDevice holds each chip's modeled execution profile, indexed by
	// fabric index (lost chips keep the stats they accrued).
	PerDevice []ipu.Stats
	// ModeledCycles is the modeled wall clock in device cycles: the
	// slowest chip's total, since the fabric advances in lockstep.
	ModeledCycles int64
	// CachedPlan reports whether the sharding plan came warm from the
	// plan cache.
	CachedPlan bool
}

// FabricError is the typed error a sharded solve fails with when the
// fabric can no longer make progress: too many chips lost, or the
// rollback budget exhausted by transient faults. It wraps the injected
// fault that finished the fabric off, so errors.As against
// *faultinject.FaultError classifies it exactly like any single-device
// fault — the degradation ladder and the chaos harness need no new
// cases.
type FabricError struct {
	// Devices is the fabric size the solve started with.
	Devices int
	// Survivors is the live fabric size at failure.
	Survivors int
	// MinDevices is the configured minimum fabric.
	MinDevices int
	// Lost lists the fabric indices lost before failure.
	Lost []int
	// Quarantined lists the fabric indices the guard layer removed for
	// Byzantine behavior (a subset of Lost).
	Quarantined []int
	// Rollbacks counts checkpoint restores consumed before failure.
	Rollbacks int
	// Err is the underlying cause, usually a *faultinject.FaultError or
	// *faultinject.CorruptionError.
	Err error
}

// Error implements error.
func (e *FabricError) Error() string {
	if len(e.Quarantined) > 0 {
		return fmt.Sprintf("shard: fabric of %d device(s) failed: %d survivor(s) (min %d), lost %v, quarantined %v, %d rollback(s): %v",
			e.Devices, e.Survivors, e.MinDevices, e.Lost, e.Quarantined, e.Rollbacks, e.Err)
	}
	return fmt.Sprintf("shard: fabric of %d device(s) failed: %d survivor(s) (min %d), lost %v, %d rollback(s): %v",
		e.Devices, e.Survivors, e.MinDevices, e.Lost, e.Rollbacks, e.Err)
}

// Unwrap exposes the underlying fault to errors.Is/As.
func (e *FabricError) Unwrap() error { return e.Err }

// AsFabric unwraps err to its fabric report, if any.
func AsFabric(err error) (*FabricError, bool) {
	var fe *FabricError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// SolveShards runs the sharded solve and returns the full Result. The
// Result is non-nil even on error, carrying lost devices, re-shard
// epochs and per-device stats up to the failure.
func (sv *Solver) SolveShards(ctx context.Context, c *lsap.Matrix) (*Result, error) {
	return sv.solveShards(ctx, c, nil)
}

// solveShards is SolveShards with a hook that sees the run once it is
// built, before the first superstep (tests use it to watch the state).
func (sv *Solver) solveShards(ctx context.Context, c *lsap.Matrix, attach func(*run)) (*Result, error) {
	n := c.N
	res := &Result{Devices: sv.devices, Survivors: sv.devices}
	if n == 0 {
		res.Solution = &lsap.Solution{
			Assignment: lsap.Assignment{},
			Potentials: &lsap.Potentials{U: []float64{}, V: []float64{}},
		}
		return res, nil
	}
	for _, v := range c.Data {
		if v == lsap.Forbidden {
			return res, fmt.Errorf("shard: forbidden edges unsupported; mask costs first")
		}
	}
	if err := sv.cfg.ValidateProblem(n, sv.devices); err != nil {
		return res, err
	}

	plan, hit := sv.cache.PlanFor(n, sv.devices, sv.cfg, sv.guard)
	res.CachedPlan = hit

	f, err := newFabric(sv.cfg, sv.devices, plan, sv.fault)
	if err != nil {
		return res, err
	}
	var scale float64
	for _, x := range c.Data {
		if ax := math.Abs(x); ax > scale {
			scale = ax
		}
	}
	r := &run{
		sv:   sv,
		f:    f,
		st:   newRunState(n, c),
		res:  res,
		c:    c,
		g:    newFabricGuard(sv.guard, sv.devices, 1e-9*(1+scale)),
		cks:  make([]*epoch, 0, 1+poplar.GuardRingEpochs),
		free: make([]*epoch, 0, 1+poplar.GuardRingEpochs),
		zcol: make([]int32, n*n),
		zlen: make([]int, n),
		path: make([]cell, 0, 2*n),
	}
	r.g.lastVerify = -1
	r.indexAll()
	r.g.rebaseline(r) // upload-time block checksums over the pristine input
	r.checkpointNow() // epoch 0: the pristine state is always restorable
	if attach != nil {
		attach(r)
	}

	track := func() {
		res.Survivors = f.live()
		res.Supersteps = f.step
		res.PerDevice = f.statsPerDevice()
		res.ModeledCycles = f.modeledCycles()
		res.GuardTrips = r.g.trips
		res.Retransmits = r.g.retransmits
		res.RollbackEpochs = r.g.rollbackEpochs
		res.DetectionLatency = r.g.maxLatency
		res.Quarantined = append([]int(nil), r.g.quarantined...)
	}
	rollbacks := 0
	var sol *lsap.Solution
	for {
		err := r.attempt(ctx)
		if err == nil {
			// Attestation runs inside the loop so a guard trip at finish
			// time (detected corruption that survived to the answer) goes
			// through the same certified-rollback recovery as any other
			// detection instead of failing the solve outright.
			sol, err = r.finish(ctx)
		}
		track()
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		if _, ok := AsFabric(err); ok {
			// The watchdog already judged the attempt unrecoverable.
			return res, err
		}
		// Guard detections are checked before announced faults: a
		// retransmit-exhaustion corruption wraps the injected fault, so
		// the corruption branch must claim it first.
		if ce, ok := faultinject.AsCorruption(err); ok {
			if rollbacks >= sv.maxRetries {
				return res, r.fabricErr(fmt.Errorf("rollback budget %d exhausted: %w", sv.maxRetries, ce))
			}
			rollbacks++
			res.Rollbacks++
			if d := ce.Device; d >= 0 && d < len(f.alive) && f.alive[d] && r.g.shouldQuarantine(d) {
				// Byzantine classification: the chip keeps producing
				// corrupt frames or failing probes — strike it from the
				// fabric exactly like a lost chip and re-shard.
				f.kill(d)
				r.g.quarantined = append(r.g.quarantined, d)
				res.LostDevices = append(res.LostDevices, d)
				track()
				if f.live() < sv.minDevices {
					return res, r.fabricErr(ce)
				}
				f.reshard()
				res.Reshards = append(res.Reshards, ReshardEpoch{
					Superstep:   f.step,
					Lost:        d,
					Survivors:   f.live(),
					Quarantined: true,
				})
			}
			if rerr := r.rollbackPastPoison(ce); rerr != nil {
				return res, r.fabricErr(fmt.Errorf("no certified checkpoint predates the corruption: %w", rerr))
			}
			track()
			continue
		}
		fe, ok := faultinject.AsFault(err)
		if !ok {
			return res, err
		}
		res.Faults++
		if fe.Transient() {
			if rollbacks >= sv.maxRetries {
				return res, r.fabricErr(fmt.Errorf("rollback budget %d exhausted: %w", sv.maxRetries, fe))
			}
			rollbacks++
			res.Rollbacks++
			r.restore()
			continue
		}
		// Fatal: the chip that reported the fault is gone for the rest
		// of the solve (a reset chip would come back on real hardware,
		// but reintegrating it mid-solve is out of scope — treat every
		// fatal fault as a loss, the conservative reading).
		lost := fe.Point.Device
		f.kill(lost)
		res.LostDevices = append(res.LostDevices, lost)
		if f.live() < sv.minDevices {
			return res, r.fabricErr(fe)
		}
		f.reshard()
		res.Reshards = append(res.Reshards, ReshardEpoch{
			Superstep: f.step,
			Lost:      lost,
			Survivors: f.live(),
		})
		r.restore()
	}

	res.Solution = sol
	track()
	return res, nil
}
