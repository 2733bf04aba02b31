package shard

import (
	"fmt"
	"math"

	"hunipu/internal/faultinject"
	"hunipu/internal/poplar"
)

// This file is the fabric-wide silent-corruption guard layer: the
// sharded counterpart of poplar's single-device guards (DESIGN.md §5d,
// now §5g). Three mechanisms compose:
//
//  1. Checksummed collectives. Every gather/broadcast frame carries a
//     splitmix checksum computed sender-side; the receiver verifies it
//     on receipt. A mismatched frame (linkflip, exbitflip) or a stale
//     one (its sequence number disagrees) is retransmitted with
//     doubling backoff, each retry re-priced at the IPU-Link rate and
//     re-exposed to the fault schedule, until MaxRetransmits is
//     exhausted — at which point the sender is struck for quarantine
//     and the solve fails over to certified rollback with a typed
//     *faultinject.CorruptionError.
//  2. Per-shard guard probes. Each shard maintains an incremental
//     checksum over its device-resident row block of the slack matrix
//     (same laundering-proof contribution sum as poplar's tensors:
//     legitimate writes subtract the old and add the new contribution,
//     so a silent flip leaves a residual no later overwrite cancels),
//     re-verified at guard cadence; under GuardInvariants and above
//     the supervisor also cross-checks sampled shard rows against its
//     held duals (slack ≡ input − u − v, slack ≥ −tol) every outer
//     loop.
//  3. Quarantine. A shard that accumulates guardMaxStrikes detections
//     (or exhausts retransmits once) is classified Byzantine: it is
//     removed from the fabric exactly like a lost chip, its rows are
//     re-sharded over the survivors, and the solve resumes from the
//     newest checkpoint epoch predating the first undetected
//     injection — certified rollback over the same bounded ring as the
//     single-device engine.
//
// All guard work is charged to the cycle model: checksum maintenance
// and probe evaluation as GuardCycles, retransmitted frames as
// exchange bytes at the IPU-Link rate.

// DefaultMaxRetransmits bounds per-frame retransmit attempts when
// Options.MaxRetransmits is zero.
const DefaultMaxRetransmits = 3

// guardMaxStrikes is how many attributed detections quarantine a
// shard. Retransmit exhaustion quarantines immediately.
const guardMaxStrikes = 2

// fabricGuard is the supervisor-held guard state of one sharded solve.
type fabricGuard struct {
	policy poplar.GuardPolicy
	// sums[d] is chip d's incremental checksum over its row block of
	// the slack matrix (zero for dead or row-less chips).
	sums []uint64
	// pending[d] counts cell-level checksum updates not yet charged;
	// flushed to ChargeGuard at each superstep barrier.
	pending []int64
	// strikes[d] counts attributed detections; at guardMaxStrikes the
	// chip is quarantined.
	strikes []int
	// pendingSince is the fabric superstep of the earliest silent
	// corruption applied to live state and not yet accounted for by a
	// detection (-1 = none). Checkpoint epochs taken after it are
	// poisoned.
	pendingSince int64
	// lastVerify is the fabric superstep of the last full verification.
	lastVerify int64
	// tol is the attestation-grade tolerance for invariant probes.
	tol float64

	trips          int
	retransmits    int
	rollbackEpochs int
	maxLatency     int64
	quarantined    []int
}

func newFabricGuard(policy poplar.GuardPolicy, k int, tol float64) *fabricGuard {
	return &fabricGuard{
		policy:       policy,
		sums:         make([]uint64, k),
		pending:      make([]int64, k),
		strikes:      make([]int, k),
		pendingSince: -1,
		tol:          tol,
	}
}

// armed reports whether any guard machinery runs at all.
func (g *fabricGuard) armed() bool { return g.policy > poplar.GuardOff }

// cadence is the full-verification period in fabric supersteps:
// checkpoint cadence normally, tightened under GuardParanoid (never
// loosened), zero when the guard is off.
func (g *fabricGuard) cadence(ckptEvery int64) int64 {
	if !g.armed() {
		return 0
	}
	c := ckptEvery
	if c <= 0 {
		c = DefaultCheckpointEvery
	}
	if g.policy == poplar.GuardParanoid && poplar.GuardParanoidEvery < c {
		c = poplar.GuardParanoidEvery
	}
	return c
}

// strike records an attributed detection against chip d.
func (g *fabricGuard) strike(d int) {
	if d >= 0 && d < len(g.strikes) {
		g.strikes[d]++
	}
}

// condemn marks chip d for immediate quarantine (retransmit
// exhaustion: the link to it cannot be trusted at any backoff).
func (g *fabricGuard) condemn(d int) {
	if d >= 0 && d < len(g.strikes) && g.strikes[d] < guardMaxStrikes {
		g.strikes[d] = guardMaxStrikes
	}
}

// shouldQuarantine reports whether chip d has struck out.
func (g *fabricGuard) shouldQuarantine(d int) bool {
	return d >= 0 && d < len(g.strikes) && g.strikes[d] >= guardMaxStrikes
}

// setSlack writes one slack cell through the guard layer: the owning
// shard's incremental checksum is updated with the old contribution
// subtracted and the new one added — the legitimate-mutation path that
// silent flips bypass.
func (r *run) setSlack(idx int, v float64) {
	if r.g.armed() {
		d := r.f.owner[idx/r.st.n]
		if d >= 0 {
			r.g.sums[d] += poplar.GuardContribution(v, idx) - poplar.GuardContribution(r.st.s[idx], idx)
			r.g.pending[d] += 2
		}
	}
	r.st.s[idx] = v
}

// flushGuardCharges prices the accumulated incremental checksum work
// at the superstep barrier.
func (r *run) flushGuardCharges() {
	if !r.g.armed() {
		return
	}
	for d, n := range r.g.pending {
		if n > 0 && r.f.alive[d] {
			r.f.devs[d].ChargeGuard(n)
			r.g.pending[d] = 0
		}
	}
}

// rebaseline recomputes every live shard's block checksum from the
// (just-restored or just-re-sharded) supervisor state, charging each
// chip a full pass over its block.
func (g *fabricGuard) rebaseline(r *run) {
	if !g.armed() {
		return
	}
	n := r.st.n
	for d := range g.sums {
		g.sums[d] = 0
		g.pending[d] = 0
		if !r.f.alive[d] {
			continue
		}
		sp := r.f.ranges[d]
		var sum uint64
		for idx := sp.Lo * n; idx < sp.Hi*n; idx++ {
			sum += poplar.GuardContribution(r.st.s[idx], idx)
		}
		g.sums[d] = sum
		r.f.devs[d].ChargeGuard(int64(sp.Len()) * int64(n))
	}
}

// corruption assembles a typed corruption report at the current fabric
// position, attributing it to chip device (-1 = unattributed) and
// charging detection latency against the earliest pending injection.
func (r *run) corruption(guard string, device int, err error) *faultinject.CorruptionError {
	//hunipulint:ignore hotalloc corruption reports are cold: one allocation per detected corruption, not per superstep
	ce := &faultinject.CorruptionError{
		Guard:    guard,
		Detected: r.f.step,
		Injected: -1,
		Latency:  -1,
		Device:   device,
		Err:      err,
	}
	if r.g.pendingSince >= 0 {
		ce.Injected = r.g.pendingSince
		ce.Latency = r.f.step - r.g.pendingSince
	}
	r.g.trips++
	if ce.Latency > r.g.maxLatency {
		r.g.maxLatency = ce.Latency
	}
	return ce
}

// noteSilent records that silent corruption landed in live state.
func (r *run) noteSilent(fe *faultinject.FaultError) {
	r.res.Faults++
	if r.g.pendingSince < 0 {
		r.g.pendingSince = fe.Point.Superstep
	}
}

// flipCell applies a deterministic mantissa-bit flip (bits 44–51, so
// the value stays finite but shifts by up to ~50%) to one cell of chip
// d's device-resident row block, bypassing the incremental checksums —
// the fabric analogue of poplar's flipBit. The zero index still sees
// the flip, as a scan of device memory would.
func (r *run) flipCell(d int, fe *faultinject.FaultError) {
	idx, ok := r.flipTarget(d, fe)
	if !ok {
		return
	}
	r.noteSilent(fe)
	bit := uint(44 + fe.Point.Superstep%8)
	r.st.s[idx] = math.Float64frombits(math.Float64bits(r.st.s[idx]) ^ (1 << bit))
	r.indexRow(idx / r.st.n)
}

// flipTarget is the slack cell fe flips in chip d's block (false when
// the block is empty).
func (r *run) flipTarget(d int, fe *faultinject.FaultError) (int, bool) {
	n := r.st.n
	sp := r.f.ranges[d]
	cells := sp.Len() * n
	if cells == 0 {
		return 0, false
	}
	return sp.Lo*n + int((uint64(fe.Point.Superstep)*31+uint64(fe.Rule)+1)%uint64(cells)), true
}

// frameBytes is the wire size of chip d's frame in the superstep shape
// pc: what a retransmit has to move again.
func (r *run) frameBytes(d int, pc phaseCharge) int64 {
	b := pc.gather + pc.gatherPerRow*int64(r.f.ranges[d].Len()) + pc.scatter
	if b < 8 {
		b = 8 // a checksum word always crosses the wire
	}
	return b
}

// applySilent handles a silent fault injected at chip d during the
// superstep pc. Frame classes (linkflip, exbitflip, stale) corrupt the
// chip's collective frame: a guarded fabric detects the bad checksum or
// stale sequence number on receipt and enters the retransmit loop; an
// unguarded one commits the corrupted frame into the supervisor state
// (stale frames excepted — they change no bytes). Block classes
// (shardflip, bitflip) flip a bit in the chip's device-resident row
// block either way; only the cadence checksums or probes can see those.
func (r *run) applySilent(d int, fe *faultinject.FaultError, pc phaseCharge) error {
	switch fe.Class {
	case faultinject.SilentLinkBitflip, faultinject.SilentExchangeBitflip, faultinject.SilentStaleRead:
		if r.g.armed() {
			return r.retransmit(d, fe, pc)
		}
		if fe.Class != faultinject.SilentStaleRead {
			r.flipCell(d, fe)
		} else {
			r.res.Faults++ // stale frame: charged but byte-invisible
		}
		return nil
	default: // SilentShardBitflip, SilentTileBitflip
		r.flipCell(d, fe)
		return nil
	}
}

// retransmit is the checksummed-collective repair loop: the receiver
// detected chip d's frame as corrupt (or stale) and requests it again,
// with doubling backoff, until a clean frame arrives or the bounded
// budget is exhausted. Every retry repeats the frame's wire cost at the
// IPU-Link rate, charges the verification as GuardCycles, and gives
// the fault schedule a fresh crack at the wire (a distinct phase name
// derives a fresh deterministic coin). Exhaustion condemns the sender
// to quarantine and surfaces a typed corruption error.
func (r *run) retransmit(d int, fe *faultinject.FaultError, pc phaseCharge) error {
	f := r.f
	root := f.root()
	frame := r.frameBytes(d, pc)
	dev := f.devs[d]
	backoff := f.cfg.SyncCycles
	if backoff <= 0 {
		backoff = 1
	}
	r.g.trips++ // the receipt-time detection of the original frame
	r.res.Faults++
	for try := 1; try <= r.sv.maxRetx; try++ {
		r.g.retransmits++
		// Re-verify + wait out the backoff, then move the frame again.
		dev.ChargeGuard(frame/8 + backoff)
		dev.ChargeExchange(frame, frame)
		if root >= 0 && root != d {
			f.devs[root].ChargeGuard(frame / 8)
			f.devs[root].ChargeExchange(frame, frame)
		}
		backoff *= 2
		refe := dev.CheckFault(fmt.Sprintf("%s:retx%d", pc.phase, try), faultinject.KindSuperstep)
		if refe == nil {
			return nil // clean frame received
		}
		if !refe.Silent() {
			r.lastFault = refe
			return refe // the wire produced an announced fault instead
		}
		switch refe.Class {
		case faultinject.SilentLinkBitflip, faultinject.SilentExchangeBitflip, faultinject.SilentStaleRead:
			r.g.trips++ // the retry was corrupted too; loop
			r.res.Faults++
		default:
			// A block flip landed during the retransmit window; the
			// frame itself came through clean.
			r.flipCell(d, refe)
			return nil
		}
	}
	r.g.condemn(d)
	ce := r.corruption(fmt.Sprintf("fabric:frame:%s", pc.phase), d,
		fmt.Errorf("shard: chip %d exhausted %d retransmit(s): %w", d, r.sv.maxRetx, fe))
	if ce.Latency < 0 {
		// Frame corruption is caught on receipt, in the same collective
		// that carried it: zero-latency detection, not unknown.
		ce.Injected, ce.Latency = ce.Detected, 0
	}
	return ce
}

// maybeGuard runs the full per-shard verification when the cadence is
// due. Called at every outer-loop head and inside the zero-search loop,
// so a paranoid fabric verifies mid-search too.
func (r *run) maybeGuard() error {
	c := r.g.cadence(r.sv.ckptEvery)
	if c == 0 || r.f.step-r.g.lastVerify < c {
		return nil
	}
	return r.guardVerify()
}

// guardVerify recomputes every live shard's block checksum against its
// incremental accumulator and, under GuardInvariants and above, runs
// the dual-identity and slack probes over each block. A mismatch is
// attributed to the owning chip (striking it for quarantine) and
// surfaces as a typed *faultinject.CorruptionError.
func (r *run) guardVerify() error {
	g := r.g
	if !g.armed() {
		return nil
	}
	g.lastVerify = r.f.step
	st := r.st
	n := st.n
	for d := range r.f.devs {
		if !r.f.alive[d] {
			continue
		}
		sp := r.f.ranges[d]
		var sum uint64
		for idx := sp.Lo * n; idx < sp.Hi*n; idx++ {
			sum += poplar.GuardContribution(st.s[idx], idx)
		}
		r.f.devs[d].ChargeGuard(int64(sp.Len()) * int64(n))
		if sum != g.sums[d] {
			g.strike(d)
			return r.corruption(fmt.Sprintf("fabric:checksum:dev%d", d), d,
				fmt.Errorf("shard: chip %d row-block checksum mismatch at superstep %d", d, r.f.step))
		}
		if g.policy >= poplar.GuardInvariants {
			if err := r.probeBlock(d, sp); err != nil {
				g.strike(d)
				return r.corruption(fmt.Sprintf("fabric:invariant:dev%d", d), d, err)
			}
		}
	}
	return nil
}

// probeBlock runs the dual-identity and slack invariants over chip d's
// row block: every cell must satisfy s[i][j] ≡ c[i][j] − u[i] − v[j]
// within tolerance, and no slack may be meaningfully negative. The
// pristine input and the duals are supervisor-held (trusted host
// memory), so this is the supervisor cross-checking the shard's state
// against its own certificates — ABFT in the Huang–Abraham sense.
func (r *run) probeBlock(d int, sp Span) error {
	st := r.st
	n := st.n
	if !st.inited {
		return nil // mid-initialisation states are not yet dual-consistent
	}
	c := r.c.Data
	tol := r.g.tol
	r.f.devs[d].ChargeGuard(int64(sp.Len()) * int64(n))
	for i := sp.Lo; i < sp.Hi; i++ {
		for j := 0; j < n; j++ {
			idx := i*n + j
			if diff := math.Abs(st.s[idx] - (c[idx] - st.u[i] - st.v[j])); diff > tol {
				return fmt.Errorf("shard: chip %d dual identity violated at (%d,%d): |s-(c-u-v)| = %g", d, i, j, diff)
			}
			if st.s[idx] < -tol {
				return fmt.Errorf("shard: chip %d negative slack %g at (%d,%d)", d, st.s[idx], i, j)
			}
		}
	}
	return nil
}

// crossCheck is the supervisor's per-outer-loop summary check under
// GuardInvariants and above: one gathered summary superstep, then one
// sampled row per live shard (rotating with the fabric clock) verified
// against the held duals — a cheap early tripwire between full
// verifications.
func (r *run) crossCheck() error {
	if r.g.policy < poplar.GuardInvariants {
		return nil
	}
	if err := r.superstep(phaseCharge{phase: "shard:guard_summary", gather: 24, scatter: 8}); err != nil {
		return err
	}
	st := r.st
	if !st.inited {
		return nil
	}
	n := st.n
	c := r.c.Data
	tol := r.g.tol
	for d := range r.f.devs {
		if !r.f.alive[d] {
			continue
		}
		sp := r.f.ranges[d]
		if sp.Len() == 0 {
			continue
		}
		i := sp.Lo + int(r.f.step%int64(sp.Len()))
		r.f.devs[d].ChargeGuard(int64(n))
		for j := 0; j < n; j++ {
			idx := i*n + j
			if diff := math.Abs(st.s[idx] - (c[idx] - st.u[i] - st.v[j])); diff > tol {
				r.g.strike(d)
				return r.corruption(fmt.Sprintf("fabric:summary:dev%d", d), d,
					fmt.Errorf("shard: chip %d summary row %d disagrees with held duals: |s-(c-u-v)| = %g", d, i, diff))
			}
		}
	}
	return nil
}

// epoch is one entry of the bounded checkpoint ring.
type epoch struct {
	st   *runState
	step int64
}

// rollbackPastPoison is coordinated certified rollback: walk the
// checkpoint ring newest→oldest, discard epochs taken after the first
// undetected injection (their snapshots carry the corruption), restore
// the newest clean one, re-baseline the shard checksums, and validate
// the restored state with the invariant probes. Returns nil when a
// certified epoch was restored; otherwise ce — annotated with the
// poisoned-epoch count — when every reachable epoch is suspect.
func (r *run) rollbackPastPoison(ce *faultinject.CorruptionError) error {
	g := r.g
	for len(r.cks) > 0 {
		ep := r.cks[len(r.cks)-1]
		if g.pendingSince >= 0 && ep.step > g.pendingSince {
			ce.PoisonedEpochs++
			g.rollbackEpochs++
			r.free = append(r.free, ep)
			r.cks = r.cks[:len(r.cks)-1]
			continue
		}
		r.restoreFrom(ep)
		if err := r.validateEpoch(); err != nil {
			ce.PoisonedEpochs++
			g.rollbackEpochs++
			r.free = append(r.free, ep)
			r.cks = r.cks[:len(r.cks)-1]
			continue
		}
		g.pendingSince = -1
		g.lastVerify = r.f.step
		return nil
	}
	return ce
}

// validateEpoch re-runs the invariant probes over every live block of
// a just-restored epoch (checksums were re-baselined from it, so only
// the algebraic invariants can still disagree).
func (r *run) validateEpoch() error {
	if r.g.policy < poplar.GuardInvariants {
		return nil
	}
	for d := range r.f.devs {
		if !r.f.alive[d] {
			continue
		}
		if err := r.probeBlock(d, r.f.ranges[d]); err != nil {
			return err
		}
	}
	return nil
}
