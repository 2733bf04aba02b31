package shard

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"hunipu/internal/faultinject"
	"hunipu/internal/poplar"
)

// indexWatch is a fault injector that, at every fault point, checks the
// run's zero index against a fresh row-major scan of the slack, then
// defers to the schedule. Every write site (steps 1 and 6, a silent
// flip, a restore, a certified rollback) reaches a fault point before
// step 4 next reads the index, so a stale row cannot slip past it.
type indexWatch struct {
	t     *testing.T
	sched faultinject.Injector
	r     *run
	// zeroFlips counts block flips scheduled onto a cell that held a
	// zero, the case where a stale index would hide a change.
	zeroFlips int
}

func (w *indexWatch) Check(p faultinject.Point) *faultinject.FaultError {
	w.verify(p.Phase)
	fe := w.sched.Check(p)
	if fe != nil && (fe.Class == faultinject.SilentShardBitflip || fe.Class == faultinject.SilentTileBitflip) {
		if idx, ok := w.r.flipTarget(p.Device, fe); ok && w.r.st.s[idx] == 0 {
			w.zeroFlips++
		}
	}
	return fe
}

// verify fails the test unless every row's index entry equals the
// zero columns a scan of the slack finds, in order.
func (w *indexWatch) verify(at string) {
	w.t.Helper()
	st := w.r.st
	n := st.n
	for i := 0; i < n; i++ {
		var want []int32
		for j, x := range st.s[i*n : (i+1)*n] {
			if x == 0 {
				want = append(want, int32(j))
			}
		}
		if got := w.r.zeros(i); !slices.Equal(got, want) {
			w.t.Fatalf("before %s: row %d zero index %v, scan finds %v", at, i, got, want)
		}
	}
}

// watchedSolve runs one sharded solve under spec with the index watch
// attached, checks the index once more on the final state, and returns
// the watch.
func watchedSolve(t *testing.T, spec string, guard poplar.GuardPolicy, k, n int) *indexWatch {
	t.Helper()
	sched, err := faultinject.ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &indexWatch{t: t, sched: sched}
	sv := mustSolver(t, Options{Config: smallChip(), Devices: k, Fault: w, Guard: guard, MaxRetries: 4, Cache: NewPlanCache()})
	m := genMatrix(t, rand.New(rand.NewSource(7)), n)
	_, _ = sv.solveShards(context.Background(), m, func(r *run) { w.r = r }) // faults may fail the solve; only the index is under test
	w.verify("the end of the solve")
	return w
}

// indexGuard is the armed policy the differential sweep runs under:
// SILENT_GUARD when CI's matrix sets it, GuardInvariants otherwise.
func indexGuard(t *testing.T) poplar.GuardPolicy {
	t.Helper()
	v := os.Getenv("SILENT_GUARD")
	if v == "" {
		return poplar.GuardInvariants
	}
	p, err := poplar.ParseGuardPolicy(v)
	if err != nil {
		t.Fatalf("SILENT_GUARD=%q: %v", v, err)
	}
	return p
}

// TestZeroIndexMatchesScan is the zero index's differential test: under
// block flips (including flips that land on zero cells), announced
// faults that restore or re-shard, and frame corruption that
// quarantines a chip, the per-row zero index always equals a row-major
// scan of the slack. GuardOff lets flips persist in live state; the
// armed policy rolls them back through restore and certified rollback.
func TestZeroIndexMatchesScan(t *testing.T) {
	for _, guard := range []poplar.GuardPolicy{poplar.GuardOff, indexGuard(t)} {
		zeroFlips := 0
		for at := 4; at < 64; at++ {
			for d := 0; d < 2; d++ {
				w := watchedSolve(t, fmt.Sprintf("shardflip at=%d device=%d", at, d), guard, 2, 12)
				zeroFlips += w.zeroFlips
			}
		}
		if zeroFlips == 0 {
			t.Fatalf("guard %v: no flip landed on a zero cell; the sweep lost its teeth", guard)
		}
		for _, spec := range []string{
			"seed=3; shardflip every=5 times=4",
			"seed=9; bitflip every=3 phase=shard:* times=3",
			"linkloss at=10 times=1; linkloss at=30 times=1",
			"deviceloss at=12 device=1",
			"linkflip every=1 device=1",
		} {
			watchedSolve(t, spec, guard, 2, 12)
			watchedSolve(t, spec, guard, 4, 13)
		}
	}
}
