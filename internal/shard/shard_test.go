package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"hunipu/internal/cpuhung"
	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// smallChip is one chip of the test fabric: Mk2 proportions with a
// reduced tile grid, matching the conformance suites.
func smallChip() ipu.Config {
	cfg := ipu.MK2()
	cfg.IPUs = 1
	cfg.TilesPerIPU = 64
	return cfg
}

func genMatrix(t *testing.T, rng *rand.Rand, n int) *lsap.Matrix {
	t.Helper()
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(rng.Intn(1000))
	}
	return m
}

func mustSolver(t *testing.T, opts Options) *Solver {
	t.Helper()
	sv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// certify fails the test unless sol is a certified optimum of m with
// the reference cost.
func certify(t *testing.T, m *lsap.Matrix, sol *lsap.Solution, want float64) {
	t.Helper()
	if sol == nil {
		t.Fatal("nil solution")
	}
	if sol.Potentials == nil {
		t.Fatal("sharded solver must return its own certificate")
	}
	if err := lsap.VerifyOptimal(m, sol.Assignment, *sol.Potentials, 1e-9); err != nil {
		t.Fatalf("certificate: %v", err)
	}
	if sol.Cost != want {
		t.Fatalf("cost = %g, want %g", sol.Cost, want)
	}
}

func refCost(t *testing.T, m *lsap.Matrix) float64 {
	t.Helper()
	ref, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	return ref.Cost
}

// TestShardedMatchesReference certifies the sharded solver against the
// JV reference at K∈{1,2,4} across sizes, including n < K and n not a
// multiple of K.
func TestShardedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{1, 2, 4} {
		sv := mustSolver(t, Options{Config: smallChip(), Devices: k, Cache: NewPlanCache()})
		if want := "HunIPU-shard"; sv.Name()[:len(want)] != want {
			t.Fatalf("Name() = %q", sv.Name())
		}
		for _, n := range []int{1, 2, 3, 7, 16, 33} {
			m := genMatrix(t, rng, n)
			want := refCost(t, m)
			res, err := sv.SolveShards(context.Background(), m)
			if err != nil {
				t.Fatalf("K=%d n=%d: %v", k, n, err)
			}
			certify(t, m, res.Solution, want)
			if res.Devices != k || res.Survivors != k || len(res.LostDevices) != 0 {
				t.Fatalf("K=%d n=%d: fabric report %+v", k, n, res)
			}
			if res.Supersteps == 0 || res.Checkpoints == 0 {
				t.Fatalf("K=%d n=%d: no supersteps/checkpoints recorded: %+v", k, n, res)
			}
		}
	}
}

// TestEmptyMatrix pins the n=0 edge.
func TestEmptyMatrix(t *testing.T) {
	sv := mustSolver(t, Options{Config: smallChip(), Devices: 2, Cache: NewPlanCache()})
	res, err := sv.SolveShards(context.Background(), lsap.NewMatrix(0))
	if err != nil || len(res.Solution.Assignment) != 0 {
		t.Fatalf("n=0: %v %+v", err, res)
	}
}

// TestCrossDeviceTrafficChargedAtLinkRate pins the tentpole's cost
// accounting: a multi-chip solve moves bytes across the IPU-Link
// (gathers and broadcasts), a single-chip solve of the same instance
// moves none, and the link traffic is priced (exchange cycles grow).
func TestCrossDeviceTrafficChargedAtLinkRate(t *testing.T) {
	m := genMatrix(t, rand.New(rand.NewSource(7)), 24)
	perDev := func(k int) []ipu.Stats {
		sv := mustSolver(t, Options{Config: smallChip(), Devices: k, Cache: NewPlanCache()})
		res, err := sv.SolveShards(context.Background(), m.Clone())
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		return res.PerDevice
	}
	solo := perDev(1)
	if solo[0].BytesExchanged != 0 {
		t.Fatalf("K=1 solve exchanged %d bytes; nothing should cross chips", solo[0].BytesExchanged)
	}
	duo := perDev(2)
	var moved int64
	for _, s := range duo {
		moved += s.BytesExchanged
	}
	if moved == 0 {
		t.Fatal("K=2 solve moved no bytes across the fabric")
	}
	if duo[0].ExchangeCycles == 0 {
		t.Fatal("K=2 root chip paid no exchange cycles for the gathers")
	}
}

// TestPlanCacheTopologyIsolation pins the program-cache criterion at
// the shard layer: warm solves reuse the plan for their own topology
// and never share one across topologies — and the guard policy is part
// of the topology fingerprint, so a guarded fabric (whose compiled
// collectives carry frame checksums) never shares a plan with an
// unguarded one.
func TestPlanCacheTopologyIsolation(t *testing.T) {
	cache := NewPlanCache()
	cfg := smallChip()
	plan := func(n, k int, cfg ipu.Config, guard poplar.GuardPolicy, wantHit bool) *Plan {
		t.Helper()
		p, hit := cache.PlanFor(n, k, cfg, guard)
		if hit != wantHit {
			t.Fatalf("PlanFor(%d, %d, %s, %v) hit = %v, want %v", n, k, cfg.Name, guard, hit, wantHit)
		}
		return p
	}
	p2 := plan(16, 2, cfg, poplar.GuardOff, false)
	p4 := plan(16, 4, cfg, poplar.GuardOff, false)
	if p2 == p4 {
		t.Fatal("K=2 and K=4 shared a plan")
	}
	if len(p2.Ranges) != 2 || len(p4.Ranges) != 4 {
		t.Fatalf("plan shapes: %d, %d ranges", len(p2.Ranges), len(p4.Ranges))
	}
	if again := plan(16, 2, cfg, poplar.GuardOff, true); again != p2 {
		t.Fatal("warm lookup did not reuse the K=2 plan")
	}
	other := cfg
	other.TileMemory *= 2
	if plan(16, 2, other, poplar.GuardOff, false) == p2 {
		t.Fatal("different chip shape shared a plan")
	}
	p2g := plan(16, 2, cfg, poplar.GuardChecksums, false)
	if p2g == p2 {
		t.Fatal("guarded and unguarded fabrics shared a plan")
	}
	if plan(16, 2, cfg, poplar.GuardParanoid, false) == p2g {
		t.Fatal("checksums and paranoid policies shared a plan")
	}
	if again := plan(16, 2, cfg, poplar.GuardChecksums, true); again != p2g {
		t.Fatal("warm lookup did not reuse the guarded K=2 plan")
	}
	snap := cache.Snapshot()
	if snap.Hits != 2 || snap.Misses != 5 || snap.Size != 5 {
		t.Fatalf("cache counters: %+v", snap)
	}

	// End to end: two warm solves on one topology hit the cache; the
	// other topology stays isolated.
	m := genMatrix(t, rand.New(rand.NewSource(3)), 12)
	e2e := NewPlanCache()
	sv2 := mustSolver(t, Options{Config: cfg, Devices: 2, Cache: e2e})
	sv4 := mustSolver(t, Options{Config: cfg, Devices: 4, Cache: e2e})
	r1, err := sv2.SolveShards(context.Background(), m.Clone())
	if err != nil || r1.CachedPlan {
		t.Fatalf("cold solve: err=%v cached=%v", err, r1.CachedPlan)
	}
	r2, err := sv2.SolveShards(context.Background(), m.Clone())
	if err != nil || !r2.CachedPlan {
		t.Fatalf("warm solve: err=%v cached=%v", err, r2.CachedPlan)
	}
	r3, err := sv4.SolveShards(context.Background(), m.Clone())
	if err != nil || r3.CachedPlan {
		t.Fatalf("other topology must not go warm off K=2: err=%v cached=%v", err, r3.CachedPlan)
	}
}

// TestPlanCacheConcurrentColdSolves pins that CachedPlan reports the
// solve's own lookup, not the cache's counters: cold solves of distinct
// n on a fresh cache all report false while other lookups keep hitting
// the same cache.
func TestPlanCacheConcurrentColdSolves(t *testing.T) {
	cache := NewPlanCache()
	cfg := smallChip()
	sv := mustSolver(t, Options{Config: cfg, Devices: 2, Cache: cache})
	rng := rand.New(rand.NewSource(37))
	var cold []*lsap.Matrix
	for n := 9; n < 25; n++ {
		cold = append(cold, genMatrix(t, rng, n))
	}
	cache.PlanFor(8, 2, cfg, poplar.GuardOff)

	stop := make(chan struct{})
	hitterDone := make(chan struct{})
	go func() { // warm traffic: every lookup here is a hit
		defer close(hitterDone)
		for {
			select {
			case <-stop:
				return
			default:
				cache.PlanFor(8, 2, cfg, poplar.GuardOff)
			}
		}
	}()
	var wg sync.WaitGroup
	cached := make([]bool, len(cold))
	errs := make([]error, len(cold))
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cold); i += 2 {
				res, err := sv.SolveShards(context.Background(), cold[i])
				errs[i], cached[i] = err, err == nil && res.CachedPlan
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-hitterDone
	for i, m := range cold {
		if errs[i] != nil {
			t.Fatalf("n=%d: %v", m.N, errs[i])
		}
		if cached[i] {
			t.Errorf("n=%d: first solve of its size reported CachedPlan", m.N)
		}
	}
}

// TestPartition pins the balanced row-block layout.
func TestPartition(t *testing.T) {
	spans := partition(10, 4)
	want := []Span{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for d, s := range spans {
		if s != want[d] {
			t.Fatalf("partition(10,4) = %v, want %v", spans, want)
		}
	}
	for _, s := range partition(2, 4)[2:] {
		if s.Len() != 0 {
			t.Fatalf("partition(2,4) gave rows to a surplus chip: %v", partition(2, 4))
		}
	}
}

// TestDeviceLossResharding is the headline robustness scenario: a K=4
// solve loses one chip mid-run, re-shards onto the 3 survivors, and
// still returns a certified optimum whose report records the lost
// device and the re-shard epoch.
func TestDeviceLossResharding(t *testing.T) {
	m := genMatrix(t, rand.New(rand.NewSource(9)), 24)
	want := refCost(t, m)
	sched, err := faultinject.ParseSchedule("deviceloss at=12 device=2")
	if err != nil {
		t.Fatal(err)
	}
	sv := mustSolver(t, Options{Config: smallChip(), Devices: 4, Fault: sched, Cache: NewPlanCache()})
	res, err := sv.SolveShards(context.Background(), m)
	if err != nil {
		t.Fatalf("solve after device loss: %v", err)
	}
	certify(t, m, res.Solution, want)
	if res.Survivors != 3 {
		t.Fatalf("Survivors = %d, want 3", res.Survivors)
	}
	if len(res.LostDevices) != 1 || res.LostDevices[0] != 2 {
		t.Fatalf("LostDevices = %v, want [2]", res.LostDevices)
	}
	if len(res.Reshards) != 1 {
		t.Fatalf("Reshards = %v, want one epoch", res.Reshards)
	}
	ep := res.Reshards[0]
	if ep.Lost != 2 || ep.Survivors != 3 || ep.Superstep == 0 {
		t.Fatalf("re-shard epoch = %+v", ep)
	}
	if res.Faults == 0 || sched.Fired() == 0 {
		t.Fatal("the scheduled loss never fired")
	}
	// The lost chip's clock froze; survivors kept working past it.
	if res.PerDevice[2].Supersteps >= res.PerDevice[0].Supersteps {
		t.Fatalf("lost chip kept running: %+v", res.PerDevice)
	}
}

// TestSequentialLossesToMinimumFabric loses chips one by one: the solve
// keeps re-sharding until the fabric dips below MinDevices, then fails
// with a FabricError that wraps the fault and names every lost chip.
func TestSequentialLossesToMinimumFabric(t *testing.T) {
	m := genMatrix(t, rand.New(rand.NewSource(11)), 16)
	sched, err := faultinject.ParseSchedule("deviceloss every=6 times=3")
	if err != nil {
		t.Fatal(err)
	}
	sv := mustSolver(t, Options{
		Config: smallChip(), Devices: 4, MinDevices: 3, Fault: sched, Cache: NewPlanCache(),
	})
	res, err := sv.SolveShards(context.Background(), m)
	if err == nil {
		t.Fatal("solve survived below the minimum fabric")
	}
	fabErr, ok := AsFabric(err)
	if !ok {
		t.Fatalf("error = %v, want *FabricError", err)
	}
	if fabErr.Survivors >= fabErr.MinDevices {
		t.Fatalf("FabricError with %d survivors ≥ min %d", fabErr.Survivors, fabErr.MinDevices)
	}
	if len(fabErr.Lost) != len(res.LostDevices) || len(fabErr.Lost) == 0 {
		t.Fatalf("Lost = %v vs report %v", fabErr.Lost, res.LostDevices)
	}
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) || fe.Class != faultinject.DeviceLoss {
		t.Fatalf("FabricError must unwrap to the DeviceLoss fault, got %v", err)
	}
	if res.Solution != nil {
		t.Fatal("failed solve still returned a solution")
	}
}

// TestLinkLossRollsBackAndRecovers pins the transient path: a one-shot
// link loss rolls every shard back to the last checkpoint and the solve
// still certifies.
func TestLinkLossRollsBackAndRecovers(t *testing.T) {
	m := genMatrix(t, rand.New(rand.NewSource(13)), 16)
	want := refCost(t, m)
	sched, err := faultinject.ParseSchedule("linkloss at=10 times=1")
	if err != nil {
		t.Fatal(err)
	}
	sv := mustSolver(t, Options{Config: smallChip(), Devices: 2, Fault: sched, Cache: NewPlanCache()})
	res, err := sv.SolveShards(context.Background(), m)
	if err != nil {
		t.Fatalf("solve after link loss: %v", err)
	}
	certify(t, m, res.Solution, want)
	if res.Rollbacks != 1 || res.Faults != 1 {
		t.Fatalf("Rollbacks = %d, Faults = %d, want 1, 1", res.Rollbacks, res.Faults)
	}
	if res.Survivors != 2 || len(res.LostDevices) != 0 {
		t.Fatalf("link loss must not cost a chip: %+v", res)
	}
}

// TestLinkStormExhaustsRetriesTyped pins the bounded-retry contract: an
// unbounded link storm ends in a typed FabricError, never a hang or an
// untyped failure.
func TestLinkStormExhaustsRetriesTyped(t *testing.T) {
	m := genMatrix(t, rand.New(rand.NewSource(17)), 12)
	sched, err := faultinject.ParseSchedule("linkloss every=1")
	if err != nil {
		t.Fatal(err)
	}
	sv := mustSolver(t, Options{
		Config: smallChip(), Devices: 2, Fault: sched, MaxRetries: 4, Cache: NewPlanCache(),
	})
	res, err := sv.SolveShards(context.Background(), m)
	if err == nil {
		t.Fatal("storm survived an every-superstep link loss")
	}
	fabErr, ok := AsFabric(err)
	if !ok {
		t.Fatalf("error = %v, want *FabricError", err)
	}
	if fabErr.Rollbacks != 4 {
		t.Fatalf("Rollbacks = %d, want the full budget 4", fabErr.Rollbacks)
	}
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) || fe.Class != faultinject.LinkLoss {
		t.Fatalf("FabricError must unwrap to the LinkLoss fault: %v", err)
	}
	if res.Rollbacks != 4 {
		t.Fatalf("report Rollbacks = %d", res.Rollbacks)
	}
}

// TestMonotoneClocksAcrossRollback pins the PR 2 convention at fabric
// scale: a one-shot at= rule consumed before a rollback does not refire
// on the replayed prefix, because superstep clocks never rewind.
func TestMonotoneClocksAcrossRollback(t *testing.T) {
	m := genMatrix(t, rand.New(rand.NewSource(19)), 16)
	want := refCost(t, m)
	sched, err := faultinject.ParseSchedule("linkloss at=9 times=1; linkloss at=11 times=1")
	if err != nil {
		t.Fatal(err)
	}
	sv := mustSolver(t, Options{Config: smallChip(), Devices: 2, Fault: sched, Cache: NewPlanCache()})
	res, err := sv.SolveShards(context.Background(), m)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	certify(t, m, res.Solution, want)
	// Both one-shots fired exactly once each: two rollbacks, two faults.
	if sched.Fired() != 2 || res.Rollbacks != 2 {
		t.Fatalf("Fired = %d, Rollbacks = %d; a rewound clock would refire", sched.Fired(), res.Rollbacks)
	}
}

// TestDeviceScopedFaultHitsOnlyItsShard pins that a device= predicate
// lands on the chip it names: losing device 1 of 2 leaves device 0's
// range running the whole matrix.
func TestDeviceScopedFaultHitsOnlyItsShard(t *testing.T) {
	m := genMatrix(t, rand.New(rand.NewSource(23)), 16)
	want := refCost(t, m)
	sched, err := faultinject.ParseSchedule("deviceloss at=8 device=1")
	if err != nil {
		t.Fatal(err)
	}
	sv := mustSolver(t, Options{Config: smallChip(), Devices: 2, Fault: sched, Cache: NewPlanCache()})
	res, err := sv.SolveShards(context.Background(), m)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	certify(t, m, res.Solution, want)
	if len(res.LostDevices) != 1 || res.LostDevices[0] != 1 || res.Survivors != 1 {
		t.Fatalf("report = %+v, want device 1 lost, 1 survivor", res)
	}
}

// TestCapacityPreflight pins the typed C2 rejection: a fabric whose
// per-chip tile memory cannot hold one row block fails fast with a
// CapacityError, before any superstep runs.
func TestCapacityPreflight(t *testing.T) {
	cfg := smallChip()
	cfg.TilesPerIPU = 2
	cfg.TileMemory = 256
	sv := mustSolver(t, Options{Config: cfg, Devices: 2, Cache: NewPlanCache()})
	res, err := sv.SolveShards(context.Background(), genMatrix(t, rand.New(rand.NewSource(29)), 64))
	if _, ok := ipu.AsCapacity(err); !ok {
		t.Fatalf("error = %v, want *ipu.CapacityError", err)
	}
	if res.Supersteps != 0 {
		t.Fatal("capacity rejection must happen before any superstep")
	}
}

// TestOptionValidation pins New's typed rejections.
func TestOptionValidation(t *testing.T) {
	if _, err := New(Options{Config: smallChip(), Devices: -1}); err == nil {
		t.Error("negative Devices accepted")
	}
	if _, err := New(Options{Config: smallChip(), Devices: 2, MinDevices: 3}); err == nil {
		t.Error("MinDevices > Devices accepted")
	}
	noLink := smallChip()
	noLink.InterIPUBytesPerCycle = 0
	if _, err := New(Options{Config: noLink, Devices: 2}); err == nil {
		t.Error("multi-chip fabric without IPU-Link bandwidth accepted")
	}
	if _, err := New(Options{Config: noLink, Devices: 1}); err != nil {
		t.Errorf("single chip needs no IPU-Link: %v", err)
	}
	// The zero config means MK2.
	sv, err := New(Options{Devices: 2})
	if err != nil || sv.Name() != "HunIPU-shard2" {
		t.Errorf("zero config: %v %v", sv, err)
	}
}

// TestForbiddenRejected pins the masked-edge contract.
func TestForbiddenRejected(t *testing.T) {
	m := lsap.NewMatrix(2)
	m.Data = []float64{1, lsap.Forbidden, 2, 3}
	sv := mustSolver(t, Options{Config: smallChip(), Devices: 2, Cache: NewPlanCache()})
	if _, err := sv.Solve(m); err == nil {
		t.Fatal("forbidden edge accepted")
	}
}

// TestCancellation pins the ContextSolver contract: a cancelled context
// surfaces as the context error, promptly.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sv := mustSolver(t, Options{Config: smallChip(), Devices: 2, Cache: NewPlanCache()})
	_, err := sv.SolveContext(ctx, genMatrix(t, rand.New(rand.NewSource(31)), 16))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestShardChaosSweep is the package-local chaos invariant: ≥50 random
// shard schedules per K∈{2,4}, every run certified-optimal or typed.
// The conformance suite runs the cross-solver version; this one keeps
// the invariant enforced even when only this package's tests run.
func TestShardChaosSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := genMatrix(t, rand.New(rand.NewSource(6)), 13)
	want := refCost(t, m)
	for _, k := range []int{2, 4} {
		for i := 0; i < 50; i++ {
			sched := faultinject.RandomShardSchedule(rng, k)
			sv := mustSolver(t, Options{
				Config: smallChip(), Devices: k, Fault: sched, MaxRetries: 3, Cache: NewPlanCache(),
			})
			res, err := sv.SolveShards(context.Background(), m.Clone())
			if err != nil {
				var fe *faultinject.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("K=%d schedule %q: untyped error %v", k, sched.String(), err)
				}
				continue
			}
			certify(t, m, res.Solution, want)
		}
	}
}
