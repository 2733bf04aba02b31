package shard

import (
	"context"
	"fmt"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// fabric is the set of simulated chips a sharded solve runs on, plus
// the row-block layout. The supervisor (host) executes the algorithm
// natively; the fabric prices what happened and reports faults.
type fabric struct {
	cfg    ipu.Config
	devs   []*ipu.Device
	alive  []bool
	ranges []Span
	// owner[i] is the chip whose block holds row i (see indexOwners).
	owner []int
	step  int64 // fabric superstep counter, monotone for the whole solve
}

func newFabric(cfg ipu.Config, k int, plan *Plan, inj faultinject.Injector) (*fabric, error) {
	f := &fabric{
		cfg:    cfg,
		devs:   make([]*ipu.Device, k),
		alive:  make([]bool, k),
		ranges: append([]Span(nil), plan.Ranges...),
		owner:  make([]int, plan.N),
	}
	for d := 0; d < k; d++ {
		dev, err := ipu.NewDevice(cfg)
		if err != nil {
			return nil, err
		}
		dev.SetFabricIndex(d)
		dev.SetInjector(inj)
		f.devs[d] = dev
		f.alive[d] = true
	}
	f.indexOwners()
	return f, nil
}

// live returns the number of chips still in the fabric.
func (f *fabric) live() int {
	n := 0
	for _, a := range f.alive {
		if a {
			n++
		}
	}
	return n
}

// root returns the lowest live fabric index — the chip that hosts the
// gather/reduce side of every collective.
func (f *fabric) root() int {
	for d, a := range f.alive {
		if a {
			return d
		}
	}
	return -1
}

// kill removes a chip from the fabric. Its stats freeze where they are.
func (f *fabric) kill(d int) {
	if d >= 0 && d < len(f.alive) {
		f.alive[d] = false
		f.indexOwners()
	}
}

// indexOwners rebuilds the row owner table: each row belongs to the
// live chip whose block holds it (the lowest such chip), and a lost
// chip's rows fall back to the root until the re-shard spreads them.
func (f *fabric) indexOwners() {
	root := f.root()
	for i := range f.owner {
		f.owner[i] = root
	}
	for d := len(f.ranges) - 1; d >= 0; d-- {
		if !f.alive[d] {
			continue
		}
		for i := f.ranges[d].Lo; i < f.ranges[d].Hi; i++ {
			f.owner[i] = d
		}
	}
}

// reshard recomputes the row-block layout over the survivors. Post-loss
// layouts are dynamic (they depend on which chip died when), so they
// are computed fresh rather than cached.
func (f *fabric) reshard() {
	spans := partition(len(f.owner), f.live())
	si := 0
	for d := range f.ranges {
		if f.alive[d] {
			f.ranges[d] = spans[si]
			si++
		} else {
			f.ranges[d] = Span{}
		}
	}
	f.indexOwners()
}

// hostPoint consults the fault schedule at a host-transfer point on
// every live chip, ascending, and returns the first fault.
func (f *fabric) hostPoint(phase string, kind faultinject.Kind) error {
	for d, dev := range f.devs {
		if !f.alive[d] {
			continue
		}
		if fe := dev.CheckFault(phase, kind); fe != nil {
			return fe
		}
	}
	return nil
}

func (f *fabric) statsPerDevice() []ipu.Stats {
	out := make([]ipu.Stats, len(f.devs))
	for d, dev := range f.devs {
		out[d] = dev.Stats()
	}
	return out
}

// modeledCycles is the slowest chip's clock: the fabric advances in
// lockstep, so the laggard sets the pace.
func (f *fabric) modeledCycles() int64 {
	var max int64
	for _, dev := range f.devs {
		if c := dev.Stats().TotalCycles(); c > max {
			max = c
		}
	}
	return max
}

// phaseCharge describes one fabric superstep's cost shape. Collectives
// follow a gather-to-root / broadcast-from-root pattern; every byte
// that crosses chips is charged once, at its receiver, against the
// IPU-Link rate (matching the receiver-side convention of
// ipu.Device.Superstep).
type phaseCharge struct {
	// phase names the superstep for fault schedules and profiles.
	phase string
	// scan charges each chip a full pass over its row block
	// (rows × n slack cells on the chip's tiles).
	scan bool
	// cells adds a flat per-chip cycle count (supervisor-side phases).
	cells int64
	// gather is the flat byte count each non-root chip sends to the
	// root; gatherPerRow adds a per-owned-row amount (candidate lists).
	gather       int64
	gatherPerRow int64
	// scatter is the byte count the root broadcasts to each non-root.
	scatter int64
}

// superstep runs one lockstep fabric superstep: each live chip is asked
// for a fault (ascending fabric order, so replays are deterministic)
// and then charged its share of compute and exchange. A fault aborts
// the superstep — chips after the faulting one are not charged, as they
// would have stalled at the BSP barrier.
//
// This is the sharded solver's per-superstep inner loop, so it is a
// hunipulint hot-path root.
//
//hunipulint:hotpath
func (r *run) superstep(pc phaseCharge) error {
	f := r.f
	n := int64(r.st.n)
	root := f.root()
	live := int64(f.live())

	// Total gather traffic lands on the root; per-sender amounts vary
	// with row ownership, so sum them first.
	var totalGather int64
	for d := range f.devs {
		if !f.alive[d] || d == root {
			continue
		}
		totalGather += pc.gather + pc.gatherPerRow*int64(f.ranges[d].Len())
	}

	for d, dev := range f.devs {
		if !f.alive[d] {
			continue
		}
		if fe := dev.CheckFault(pc.phase, faultinject.KindSuperstep); fe != nil {
			if fe.Silent() {
				// Silent faults don't abort the superstep — they corrupt
				// it. A guarded fabric detects frame classes on receipt
				// and retransmits; block classes land in the chip's row
				// block for the cadence probes to find. applySilent
				// returns an error only when the repair loop itself
				// fails (retransmit exhaustion, or an announced fault
				// arriving mid-retry).
				if err := r.applySilent(d, fe, pc); err != nil {
					return err
				}
			} else {
				r.lastFault = fe
				return fe
			}
		}
		rows := int64(f.ranges[d].Len())
		cells := pc.cells
		if pc.scan {
			cells += rows * n
		}
		var compute int64
		if cells > 0 {
			tilesUsed := int64(f.cfg.TilesPerIPU)
			if rows > 0 && rows < tilesUsed {
				tilesUsed = rows
			}
			compute = (cells + tilesUsed - 1) / tilesUsed
		}
		// The chip's traffic sits on one port in each direction; the
		// bytes it receives are the ones it counts.
		var in, out, cross int64
		if d == root {
			in = totalGather
			out = (live - 1) * pc.scatter
			cross = totalGather
		} else {
			in = pc.scatter
			out = pc.gather + pc.gatherPerRow*rows
			cross = pc.scatter
		}
		dev.Superstep(compute, ipu.Exchange{MaxBytes: max(in, out), TotalBytes: in, CrossBytes: cross}, rows)
	}
	r.flushGuardCharges()
	f.step++
	return nil
}

// runState is the authoritative algorithm state the supervisor holds:
// the sharded slack matrix, the explicit duals that certify the final
// matching, and the Munkres bookkeeping arrays. A checkpoint is a deep
// copy of this struct — one snapshot captures the whole fabric, which
// is what makes the rollback barrier globally consistent.
type runState struct {
	n       int
	s       []float64 // slack, row-major; slack ≡ input − u − v
	u, v    []float64 // dual potentials (the optimality certificate)
	starred []int     // starred[i] = starred column of row i, or -1
	colStar []int     // colStar[j] = starred row of column j, or -1
	primed  []int     // primed[i] = primed column of row i, or -1
	rowCov  []bool
	colCov  []bool
	inited  bool // upload + steps 1–2 complete
}

func allocRunState(n int) *runState {
	return &runState{
		n:       n,
		s:       make([]float64, n*n),
		u:       make([]float64, n),
		v:       make([]float64, n),
		starred: make([]int, n),
		colStar: make([]int, n),
		primed:  make([]int, n),
		rowCov:  make([]bool, n),
		colCov:  make([]bool, n),
	}
}

func newRunState(n int, c *lsap.Matrix) *runState {
	st := allocRunState(n)
	copy(st.s, c.Data)
	for i := 0; i < n; i++ {
		st.starred[i] = -1
		st.colStar[i] = -1
		st.primed[i] = -1
	}
	return st
}

// copyFrom overwrites st in place with src, a state of the same n.
func (st *runState) copyFrom(src *runState) {
	copy(st.s, src.s)
	copy(st.u, src.u)
	copy(st.v, src.v)
	copy(st.starred, src.starred)
	copy(st.colStar, src.colStar)
	copy(st.primed, src.primed)
	copy(st.rowCov, src.rowCov)
	copy(st.colCov, src.colCov)
	st.inited = src.inited
}

// run is one sharded solve in flight.
type run struct {
	sv  *Solver
	f   *fabric
	st  *runState
	res *Result
	c   *lsap.Matrix
	g   *fabricGuard

	// cks is the bounded checkpoint ring: epoch 0 (the pristine input)
	// is pinned, plus up to poplar.GuardRingEpochs recent epochs so
	// certified rollback can walk past poisoned snapshots. Epochs
	// evicted from the ring or discarded as poisoned wait in free, and
	// the next checkpoint copies into their buffers.
	cks       []*epoch
	free      []*epoch
	ckStep    int64 // fabric superstep of the newest checkpoint
	needWrite bool  // state must be re-uploaded before resuming
	lastFault *faultinject.FaultError

	// zcol and zlen are the per-row zero index, HunIPU's compressed
	// matrix on the host: row i's zero-slack columns, ascending, are
	// zcol[i*n : i*n+zlen[i]]. It is derived from st.s and rebuilt for
	// every row a write touches (indexRow), so step 4 visits candidate
	// zeros instead of rescanning the whole slack, and checkpoints do
	// not carry it.
	zcol []int32
	zlen []int

	// path is step 5's alternating-path buffer, reused across augments.
	path []cell
}

// cell is one (row, column) position of the slack matrix.
type cell struct{ r, c int }

// indexRow rebuilds row i's entry in the zero index from the slack.
func (r *run) indexRow(i int) {
	n := r.st.n
	zc := r.zcol[i*n : (i+1)*n]
	z := 0
	for j, x := range r.st.s[i*n : (i+1)*n] {
		if x == 0 {
			zc[z] = int32(j)
			z++
		}
	}
	r.zlen[i] = z
}

// indexAll rebuilds the whole zero index (after a restore).
func (r *run) indexAll() {
	for i := 0; i < r.st.n; i++ {
		r.indexRow(i)
	}
}

// zeros returns row i's zero columns in ascending order.
func (r *run) zeros(i int) []int32 {
	lo := i * r.st.n
	return r.zcol[lo : lo+r.zlen[i]]
}

// checkpointNow snapshots the state without consulting the schedule
// (used for the free epoch-0 checkpoint of the pristine input). The
// ring keeps epoch 0 pinned and evicts the oldest non-pinned epoch
// beyond poplar.GuardRingEpochs; the snapshot reuses a spare epoch's
// buffers when there is one.
func (r *run) checkpointNow() {
	if len(r.cks) > poplar.GuardRingEpochs {
		r.free = append(r.free, r.cks[1])
		copy(r.cks[1:], r.cks[2:])
		r.cks = r.cks[:len(r.cks)-1]
	}
	var ep *epoch
	if k := len(r.free); k > 0 {
		ep = r.free[k-1]
		r.free = r.free[:k-1]
	} else {
		ep = &epoch{st: allocRunState(r.st.n)}
	}
	ep.st.copyFrom(r.st)
	ep.step = r.f.step
	r.cks = append(r.cks, ep)
	r.ckStep = r.f.step
	r.res.Checkpoints++
}

// checkpoint takes a cross-device barrier snapshot, charging the
// host-read points so stalls can hit checkpoint traffic too. Under an
// armed guard the blocks are verified first, so every ring epoch is
// certified clean as of its snapshot step.
func (r *run) checkpoint() error {
	if r.g.armed() && r.g.lastVerify != r.f.step {
		if err := r.guardVerify(); err != nil {
			return err
		}
	}
	if err := r.f.hostPoint("shard:ckpt", faultinject.KindHostRead); err != nil {
		r.noteFault(err)
		return err
	}
	r.checkpointNow()
	return nil
}

func (r *run) maybeCheckpoint() error {
	if r.f.step-r.ckStep >= r.sv.ckptEvery {
		return r.checkpoint()
	}
	return nil
}

// restore rewinds the whole fabric to the newest checkpoint.
func (r *run) restore() {
	r.restoreFrom(r.cks[len(r.cks)-1])
}

// restoreFrom copies epoch ep into the live state. The supervisor copy
// is free; the re-upload of every chip's row block is charged (and
// fault-checked) at the start of the next attempt, and the zero index
// and the shard checksums are rebuilt from the restored state.
func (r *run) restoreFrom(ep *epoch) {
	r.st.copyFrom(ep.st)
	r.ckStep = ep.step
	r.needWrite = true
	r.indexAll()
	r.g.rebaseline(r)
}

func (r *run) noteFault(err error) {
	if fe, ok := faultinject.AsFault(err); ok {
		r.lastFault = fe
	}
}

// maxSteps is the per-attempt superstep watchdog budget.
func (r *run) maxSteps() int64 {
	if r.sv.maxSteps > 0 {
		return r.sv.maxSteps
	}
	n := int64(r.st.n)
	return 20*n*n + 4096
}

// watchdog converts a wedged attempt (a fault storm that keeps the
// solve from reaching a new checkpoint) into a typed error wrapping the
// last observed fault, so the run still classifies as fault-caused.
func (r *run) watchdog(start int64) error {
	if r.f.step-start <= r.maxSteps() {
		return nil
	}
	cause := error(fmt.Errorf("no fault observed"))
	if r.lastFault != nil {
		cause = r.lastFault
	}
	return r.fabricErr(fmt.Errorf("superstep watchdog tripped after %d supersteps: %w", r.maxSteps(), cause))
}

// fabricErr wraps cause in a *FabricError carrying the fabric's full
// failure context (survivors, losses, quarantines, rollbacks).
func (r *run) fabricErr(cause error) *FabricError {
	return &FabricError{
		Devices:     r.sv.devices,
		Survivors:   r.f.live(),
		MinDevices:  r.sv.minDevices,
		Lost:        append([]int(nil), r.res.LostDevices...),
		Quarantined: append([]int(nil), r.g.quarantined...),
		Rollbacks:   r.res.Rollbacks,
		Err:         cause,
	}
}

// attempt runs the solve from the current state until the matching is
// complete (including the final result download) or a fault surfaces.
func (r *run) attempt(ctx context.Context) error {
	start := r.f.step
	if r.needWrite {
		if err := r.f.hostPoint("shard:rollback", faultinject.KindHostWrite); err != nil {
			r.noteFault(err)
			return err
		}
		r.needWrite = false
	}
	if !r.st.inited {
		if err := r.f.hostPoint("shard:upload", faultinject.KindHostWrite); err != nil {
			r.noteFault(err)
			return err
		}
		if err := r.initSteps(); err != nil {
			return err
		}
		r.st.inited = true
		if err := r.checkpoint(); err != nil {
			return err
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.watchdog(start); err != nil {
			return err
		}
		// Guard verification runs at cadence ahead of the checkpoint
		// decision, and the supervisor cross-checks shard summaries
		// against its held duals every outer loop (GuardInvariants and
		// above), so corruption is caught before it can be snapshotted.
		if err := r.maybeGuard(); err != nil {
			return err
		}
		if err := r.crossCheck(); err != nil {
			return err
		}
		// Checkpoints are taken only here, at the top of the outer loop:
		// after an augment the covers and primes are clear, so a restored
		// state is always a valid step-3 entry point. Snapshotting inside
		// the zero-search would capture a mid-search cover pattern that
		// re-running step 3 on resume would silently corrupt.
		if err := r.maybeCheckpoint(); err != nil {
			return err
		}
		done, err := r.step3Cover()
		if err != nil {
			return err
		}
		if done {
			break
		}
		for augmented := false; !augmented; {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := r.watchdog(start); err != nil {
				return err
			}
			// A paranoid fabric verifies mid-search too: the zero search
			// can run many supersteps between outer loops.
			if err := r.maybeGuard(); err != nil {
				return err
			}
			i, j, found, err := r.step4Scan()
			if err != nil {
				return err
			}
			if !found {
				if err := r.step6Update(); err != nil {
					return err
				}
				continue
			}
			r.st.primed[i] = j
			if sj := r.st.starred[i]; sj >= 0 {
				// Starred zero in the primed row: cover the row, free
				// the star's column (broadcast in step4's scatter).
				r.st.rowCov[i] = true
				r.st.colCov[sj] = false
				continue
			}
			if err := r.step5Augment(i, j); err != nil {
				return err
			}
			augmented = true
		}
	}
	if err := r.f.hostPoint("shard:download", faultinject.KindHostRead); err != nil {
		r.noteFault(err)
		return err
	}
	return nil
}

// initSteps runs steps 1–2: row reduction (local per shard), column
// reduction (partial minima gathered, v broadcast), and the greedy
// initial matching (zero candidates gathered, stars broadcast).
func (r *run) initSteps() error {
	st := r.st
	n := st.n
	if err := r.superstep(phaseCharge{phase: "shard:s1_rows", scan: true}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := st.s[i*n : (i+1)*n]
		m := row[0]
		for _, x := range row[1:] {
			if x < m {
				m = x
			}
		}
		for j := range row {
			r.setSlack(i*n+j, row[j]-m)
		}
		st.u[i] += m
		r.indexRow(i)
	}
	if err := r.superstep(phaseCharge{phase: "shard:s1_cols", scan: true, gather: int64(n) * 8, scatter: int64(n) * 8}); err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		m := st.s[j]
		for i := 1; i < n; i++ {
			if x := st.s[i*n+j]; x < m {
				m = x
			}
		}
		if m != 0 {
			for i := 0; i < n; i++ {
				r.setSlack(i*n+j, st.s[i*n+j]-m)
			}
		}
		st.v[j] += m
	}
	r.indexAll()
	if err := r.superstep(phaseCharge{phase: "shard:s2_star", scan: true, gatherPerRow: 16, scatter: int64(n) * 8}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		for _, j := range r.zeros(i) {
			if st.colStar[j] < 0 {
				st.starred[i] = int(j)
				st.colStar[j] = i
				break
			}
		}
	}
	return nil
}

// step3Cover covers every starred column and reports completion.
func (r *run) step3Cover() (bool, error) {
	st := r.st
	if err := r.superstep(phaseCharge{phase: "shard:s3_cover", cells: int64(st.n), scatter: int64(st.n)}); err != nil {
		return false, err
	}
	covered := 0
	for j := 0; j < st.n; j++ {
		st.colCov[j] = st.colStar[j] >= 0
		if st.colCov[j] {
			covered++
		}
	}
	return covered == st.n, nil
}

// step4Scan searches every shard for an uncovered zero; candidates are
// gathered and the globally first (row-major, so device-count
// independent) wins. The chips are charged a full scan of their
// blocks; the host walks the zero index, which yields the same (i, j)
// as a row-major scan of the slack.
//
//hunipulint:hotpath
func (r *run) step4Scan() (int, int, bool, error) {
	st := r.st
	if err := r.superstep(phaseCharge{phase: "shard:s4_scan", scan: true, gather: 16, scatter: 24}); err != nil {
		return 0, 0, false, err
	}
	for i := 0; i < st.n; i++ {
		if st.rowCov[i] {
			continue
		}
		for _, j := range r.zeros(i) {
			if !st.colCov[j] {
				return i, int(j), true, nil
			}
		}
	}
	return 0, 0, false, nil
}

// step5Augment flips the alternating star/prime path from (i, j) and
// broadcasts the new matching to every shard.
func (r *run) step5Augment(i, j int) error {
	st := r.st
	n := int64(st.n)
	if err := r.superstep(phaseCharge{phase: "shard:s5_augment", cells: 2 * n, scatter: n * 4}); err != nil {
		return err
	}
	path := append(r.path[:0], cell{i, j})
	for {
		sr := st.colStar[path[len(path)-1].c]
		if sr < 0 {
			break
		}
		path = append(path, cell{sr, path[len(path)-1].c})
		path = append(path, cell{sr, st.primed[sr]})
	}
	r.path = path
	for k, p := range path {
		if k%2 == 0 { // primed zero → star it
			st.starred[p.r] = p.c
			st.colStar[p.c] = p.r
		}
	}
	for r2 := range st.primed {
		st.primed[r2] = -1
		st.rowCov[r2] = false
	}
	for c2 := range st.colCov {
		st.colCov[c2] = false
	}
	return nil
}

// step6Update finds the global minimum uncovered slack δ (local minima
// gathered, δ broadcast) and applies the dual update: δ joins u on
// uncovered rows and leaves v on covered columns, with the sharded
// slack updated in place so slack ≡ input − u − v is preserved.
//
//hunipulint:hotpath
func (r *run) step6Update() error {
	st := r.st
	n := st.n
	if err := r.superstep(phaseCharge{phase: "shard:s6_min", scan: true, gather: 8, scatter: 8}); err != nil {
		return err
	}
	colCov := st.colCov[:n]
	min := -1.0
	for i := 0; i < n; i++ {
		if st.rowCov[i] {
			continue
		}
		for j, x := range st.s[i*n : (i+1)*n] {
			if !colCov[j] && (min < 0 || x < min) {
				min = x
			}
		}
	}
	if min <= 0 {
		// A non-positive δ means the slack matrix itself is inconsistent
		// — on a guarded fabric that is a detection (silent corruption
		// drove a slack negative or zeroed the whole frontier), and it
		// surfaces typed so rollback recovery can handle it. Unguarded,
		// it stays the untyped wedge it always was.
		err := fmt.Errorf("shard: step 6 found no positive uncovered minimum (min = %g)", min)
		if r.g.armed() {
			return r.corruption("fabric:positive-delta", -1, err)
		}
		return err
	}
	if err := r.superstep(phaseCharge{phase: "shard:s6_update", scan: true}); err != nil {
		return err
	}
	// One pass per row: a covered row gains δ on its covered columns,
	// an uncovered row loses it on its uncovered columns (x + (−δ) is
	// x − δ bit for bit). Each written cell is hashed as setSlack would
	// hash it, the old contribution from the stored value, and the
	// row's checksum delta and charge go to its owner once. uint64 sums
	// wrap, so the per-row total equals the per-cell one exactly. The
	// row's zero list is rebuilt in the same pass.
	armed := r.g.armed()
	for i := 0; i < n; i++ {
		cov := st.rowCov[i]
		add := -min
		if cov {
			add = min
		}
		lo := i * n
		zc := r.zcol[lo : lo+n]
		z := 0
		var sum uint64
		var hashed int64
		for j, x := range st.s[lo : lo+n] {
			if colCov[j] == cov {
				v := x + add
				if armed {
					sum += poplar.GuardContribution(v, lo+j) - poplar.GuardContribution(x, lo+j)
					hashed += 2
				}
				st.s[lo+j] = v
				x = v
			}
			if x == 0 {
				zc[z] = int32(j)
				z++
			}
		}
		r.zlen[i] = z
		// Every row has a live owner: a solve stops before its fabric
		// shrinks below MinDevices ≥ 1.
		d := r.f.owner[i]
		r.g.sums[d] += sum
		r.g.pending[d] += hashed
		if !cov {
			st.u[i] += min
		}
	}
	for j := 0; j < n; j++ {
		if st.colCov[j] {
			st.v[j] -= min
		}
	}
	return nil
}

// finish builds the solution and — under an armed guard — runs a final
// block verification and then attests the answer against the pristine
// input via the solver's own dual certificate, so a wrong matching
// cannot escape a guarded fabric. At GuardOff the whole layer,
// attestation included, is disabled: that is the deliberate escape
// hatch the chaos control uses to demonstrate an uncaught wrong answer
// (and the reason hunipu's public surface defaults sharded solves to
// GuardChecksums instead of off).
func (r *run) finish(ctx context.Context) (*lsap.Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.g.armed() && r.g.lastVerify != r.f.step {
		if err := r.guardVerify(); err != nil {
			return nil, err
		}
	}
	st := r.st
	a := make(lsap.Assignment, st.n)
	copy(a, st.starred)
	p := &lsap.Potentials{
		U: append([]float64(nil), st.u...),
		V: append([]float64(nil), st.v...),
	}
	if r.g.armed() {
		if err := lsap.VerifyOptimal(r.c, a, *p, r.g.tol); err != nil {
			return nil, r.corruption("shard:attestation", -1, err)
		}
	}
	return &lsap.Solution{Assignment: a, Cost: a.Cost(r.c), Potentials: p}, nil
}
