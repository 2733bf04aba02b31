package ipu

import (
	"errors"
	"testing"

	"hunipu/internal/faultinject"
)

// fabricConfig returns an MK2-derived config with k chips and a small
// tile grid so per-tile arithmetic stays easy to reason about.
func fabricConfig(k int) Config {
	cfg := MK2()
	cfg.IPUs = k
	cfg.TilesPerIPU = 64
	return cfg
}

// TestCrossIPUChargedAtLinkRate pins the exchange-pricing formula in
// Device.Superstep for K∈{1,2,4}: bytes flagged as crossing chips are
// charged against InterIPUBytesPerCycle (amortised over the fabric's
// tile count), on top of — never instead of — the on-chip port cost.
func TestCrossIPUChargedAtLinkRate(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		cfg := fabricConfig(k)
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const maxBytes, cross = int64(8192), int64(1 << 20)
		d.Superstep(0, Exchange{MaxBytes: maxBytes, TotalBytes: maxBytes, CrossBytes: cross}, 0)

		want := cfg.ExchangeLatencyCycles +
			int64(float64(maxBytes)/cfg.ExchangeBytesPerCycle) +
			int64(float64(cross)/float64(cfg.Tiles())/cfg.InterIPUBytesPerCycle)
		if got := d.Stats().ExchangeCycles; got != want {
			t.Errorf("K=%d: ExchangeCycles = %d, want %d", k, got, want)
		}
	}
}

// TestIntraIPUNotChargedAtLinkRate pins the complement: the same
// traffic with CrossBytes=0 pays only the on-chip exchange rate,
// regardless of how many chips the fabric has.
func TestIntraIPUNotChargedAtLinkRate(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		cfg := fabricConfig(k)
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const maxBytes = int64(8192)
		d.Superstep(0, Exchange{MaxBytes: maxBytes, TotalBytes: maxBytes}, 0)

		want := cfg.ExchangeLatencyCycles +
			int64(float64(maxBytes)/cfg.ExchangeBytesPerCycle)
		if got := d.Stats().ExchangeCycles; got != want {
			t.Errorf("K=%d: ExchangeCycles = %d, want %d (no IPU-Link term)", k, got, want)
		}
	}
}

// TestCrossIPUAmortisedOverTiles pins that the IPU-Link term divides by
// the whole fabric's tile count: the same cross-chip byte volume gets
// cheaper per superstep as chips (and thus link ports) are added.
func TestCrossIPUAmortisedOverTiles(t *testing.T) {
	cost := func(k int) int64 {
		d, err := NewDevice(fabricConfig(k))
		if err != nil {
			t.Fatal(err)
		}
		d.Superstep(0, Exchange{MaxBytes: 1, TotalBytes: 1, CrossBytes: 1 << 22}, 0)
		return d.Stats().ExchangeCycles
	}
	c1, c2, c4 := cost(1), cost(2), cost(4)
	if !(c1 > c2 && c2 > c4) {
		t.Fatalf("cross-IPU cost should shrink with fabric size: K=1:%d K=2:%d K=4:%d", c1, c2, c4)
	}
}

func TestValidateProblemFits(t *testing.T) {
	cfg := MK2()
	cfg.IPUs = 4
	// n=4096 over 4 shards → 1024 rows/shard → 1 row/tile on 1472
	// tiles → 4096·8 = 32 KiB per tile, well inside 624 KiB.
	if err := cfg.ValidateProblem(4096, 4); err != nil {
		t.Fatalf("ValidateProblem(4096, 4) = %v", err)
	}
	// n ≤ 0 is not a capacity question.
	if err := cfg.ValidateProblem(0, 4); err != nil {
		t.Fatalf("ValidateProblem(0, 4) = %v", err)
	}
}

func TestValidateProblemRejectsOversize(t *testing.T) {
	cfg := MK2()
	cfg.IPUs = 2
	cfg.TilesPerIPU = 4
	cfg.TileMemory = 4096
	// n=128 over 2 shards → 64 rows/shard → 16 rows/tile →
	// 16·128·8 = 16384 bytes > 4096 budget.
	err := cfg.ValidateProblem(128, 2)
	ce, ok := AsCapacity(err)
	if !ok {
		t.Fatalf("ValidateProblem = %v, want *CapacityError", err)
	}
	if ce.N != 128 || ce.Shards != 2 || ce.RowsPerTile != 16 ||
		ce.NeedBytes != 16384 || ce.TileMemory != 4096 {
		t.Fatalf("CapacityError fields = %+v", ce)
	}
	if ce.Constraint != "C2 tile memory" {
		t.Fatalf("Constraint = %q, want the C2 name", ce.Constraint)
	}
	// More shards spread the same rows thinner and fit again.
	cfg.IPUs = 8
	if err := cfg.ValidateProblem(128, 8); err != nil {
		t.Fatalf("ValidateProblem(128, 8) = %v", err)
	}
}

func TestValidateProblemDefaultsShardsToIPUs(t *testing.T) {
	cfg := MK2()
	cfg.IPUs = 2
	cfg.TilesPerIPU = 4
	cfg.TileMemory = 4096
	got := cfg.ValidateProblem(128, 0)
	want := cfg.ValidateProblem(128, 2)
	if (got == nil) != (want == nil) {
		t.Fatalf("shards=0 (%v) should behave like shards=IPUs (%v)", got, want)
	}
	ce, ok := AsCapacity(got)
	if !ok || ce.Shards != 2 {
		t.Fatalf("shards=0 error = %v, want Shards=2 in report", got)
	}
}

func TestValidateProblemChecksConfigFirst(t *testing.T) {
	cfg := MK2()
	cfg.TilesPerIPU = 0
	if err := cfg.ValidateProblem(16, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFabricIndexTargetsDeviceRules pins the device= predicate wiring:
// a rule scoped to device 1 must fire only on the fabric member with
// that index, and the index must ride along in the FaultError.
func TestFabricIndexTargetsDeviceRules(t *testing.T) {
	sched, err := faultinject.ParseSchedule("deviceloss at=0 device=1")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 3)
	for i := range devices {
		d, err := NewDevice(fabricConfig(len(devices)))
		if err != nil {
			t.Fatal(err)
		}
		d.SetFabricIndex(i)
		d.SetInjector(sched)
		devices[i] = d
	}
	for i, d := range devices {
		if got := d.FabricIndex(); got != i {
			t.Fatalf("FabricIndex() = %d, want %d", got, i)
		}
		fe := d.CheckFault("shard:s4_scan", faultinject.KindSuperstep)
		if (fe != nil) != (i == 1) {
			t.Fatalf("device %d: fault = %v, want fire only on device 1", i, fe)
		}
		if i == 1 {
			if fe.Class != faultinject.DeviceLoss || fe.Point.Device != 1 {
				t.Fatalf("fault = %+v, want DeviceLoss on device 1", fe)
			}
			var target *faultinject.FaultError
			if !errors.As(fe, &target) {
				t.Fatal("FaultError must stay errors.As-matchable")
			}
		}
	}
}

// Devices outside a fabric report index 0, so pre-sharding schedules
// (which never mention device=) keep matching them.
func TestDefaultFabricIndexIsZero(t *testing.T) {
	d, err := NewDevice(MK2())
	if err != nil {
		t.Fatal(err)
	}
	if d.FabricIndex() != 0 {
		t.Fatalf("fresh device FabricIndex = %d", d.FabricIndex())
	}
	sched, err := faultinject.ParseSchedule("exchange at=0")
	if err != nil {
		t.Fatal(err)
	}
	d.SetInjector(sched)
	fe := d.CheckFault("phase", faultinject.KindSuperstep)
	if fe == nil || fe.Point.Device != 0 {
		t.Fatalf("fault = %+v, want device-0 point", fe)
	}
}
