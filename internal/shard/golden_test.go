package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hunipu/internal/datasets"
	"hunipu/internal/ipu"
	"hunipu/internal/poplar"
)

// shardGolden is one pinned point of the fabric clock: what a fault-free
// sharded solve of a seeded Gaussian instance charges, superstep by
// superstep and chip by chip.
type shardGolden struct {
	n, k        int
	guard       poplar.GuardPolicy
	supersteps  int64
	checkpoints int
	modeled     int64
	// dev[d] is chip d's {GuardCycles, ExchangeCycles, ComputeCycles}.
	dev  [][3]int64
	cost float64
}

// shardGoldens was captured from the row-major full-scan supervisor,
// before step 4/6 host work followed the written cells. Host-side
// speed-ups must leave every figure here untouched.
var shardGoldens = []shardGolden{
	{n: 16, k: 1, guard: poplar.GuardOff, supersteps: 59, checkpoints: 5, modeled: 6742, dev: [][3]int64{{0, 0, 842}}, cost: 27806},
	{n: 16, k: 1, guard: poplar.GuardChecksums, supersteps: 59, checkpoints: 5, modeled: 12106, dev: [][3]int64{{5364, 0, 842}}, cost: 27806},
	{n: 16, k: 1, guard: poplar.GuardInvariants, supersteps: 63, checkpoints: 5, modeled: 15130, dev: [][3]int64{{7988, 0, 842}}, cost: 27806},
	{n: 16, k: 2, guard: poplar.GuardOff, supersteps: 59, checkpoints: 5, modeled: 11818, dev: [][3]int64{{0, 4334, 852}, {0, 5066, 852}}, cost: 27806},
	{n: 16, k: 2, guard: poplar.GuardChecksums, supersteps: 59, checkpoints: 5, modeled: 14450, dev: [][3]int64{{2732, 4334, 852}, {2632, 5066, 852}}, cost: 27806},
	{n: 16, k: 2, guard: poplar.GuardInvariants, supersteps: 63, checkpoints: 5, modeled: 16606, dev: [][3]int64{{4076, 4746, 852}, {3976, 5478, 852}}, cost: 27806},
	{n: 16, k: 4, guard: poplar.GuardOff, supersteps: 59, checkpoints: 5, modeled: 11838, dev: [][3]int64{{0, 4602, 872}, {0, 5066, 872}, {0, 5066, 872}, {0, 5066, 872}}, cost: 27806},
	{n: 16, k: 4, guard: poplar.GuardChecksums, supersteps: 59, checkpoints: 5, modeled: 13242, dev: [][3]int64{{1328, 4602, 872}, {1404, 5066, 872}, {1332, 5066, 872}, {1300, 5066, 872}}, cost: 27806},
	{n: 16, k: 4, guard: poplar.GuardInvariants, supersteps: 63, checkpoints: 5, modeled: 14758, dev: [][3]int64{{2032, 5038, 872}, {2108, 5478, 872}, {2036, 5478, 872}, {2004, 5478, 872}}, cost: 27806},
	{n: 64, k: 1, guard: poplar.GuardOff, supersteps: 410, checkpoints: 15, modeled: 65552, dev: [][3]int64{{0, 0, 24552}}, cost: 290241},
	{n: 64, k: 1, guard: poplar.GuardChecksums, supersteps: 410, checkpoints: 15, modeled: 489444, dev: [][3]int64{{423892, 0, 24552}}, cost: 290241},
	{n: 64, k: 1, guard: poplar.GuardInvariants, supersteps: 424, checkpoints: 15, modeled: 725212, dev: [][3]int64{{658260, 0, 24552}}, cost: 290241},
	{n: 64, k: 2, guard: poplar.GuardOff, supersteps: 410, checkpoints: 15, modeled: 102618, dev: [][3]int64{{0, 33798, 24592}, {0, 37026, 24592}}, cost: 290241},
	{n: 64, k: 2, guard: poplar.GuardChecksums, supersteps: 410, checkpoints: 15, modeled: 316054, dev: [][3]int64{{210456, 33798, 24592}, {213436, 37026, 24592}}, cost: 290241},
	{n: 64, k: 2, guard: poplar.GuardInvariants, supersteps: 424, checkpoints: 15, modeled: 436528, dev: [][3]int64{{328088, 35240, 24592}, {331068, 38468, 24592}}, cost: 290241},
	{n: 64, k: 4, guard: poplar.GuardOff, supersteps: 410, checkpoints: 15, modeled: 102698, dev: [][3]int64{{0, 35797, 24672}, {0, 37026, 24672}, {0, 37026, 24672}, {0, 37026, 24672}}, cost: 290241},
	{n: 64, k: 4, guard: poplar.GuardChecksums, supersteps: 410, checkpoints: 15, modeled: 210446, dev: [][3]int64{{108020, 35797, 24672}, {102436, 37026, 24672}, {105688, 37026, 24672}, {107748, 37026, 24672}}, cost: 290241},
	{n: 64, k: 4, guard: poplar.GuardInvariants, supersteps: 424, checkpoints: 15, modeled: 272552, dev: [][3]int64{{167284, 37323, 24672}, {161700, 38468, 24672}, {164952, 38468, 24672}, {167012, 38468, 24672}}, cost: 290241},
	{n: 128, k: 1, guard: poplar.GuardOff, supersteps: 1922, checkpoints: 35, modeled: 429740, dev: [][3]int64{{0, 0, 237540}}, cost: 899942},
	{n: 128, k: 1, guard: poplar.GuardChecksums, supersteps: 1922, checkpoints: 35, modeled: 6619448, dev: [][3]int64{{6189708, 0, 237540}}, cost: 899942},
	{n: 128, k: 1, guard: poplar.GuardInvariants, supersteps: 1956, checkpoints: 35, modeled: 10821504, dev: [][3]int64{{10388364, 0, 237540}}, cost: 899942},
	{n: 128, k: 2, guard: poplar.GuardOff, supersteps: 1922, checkpoints: 35, modeled: 616025, dev: [][3]int64{{0, 176829, 237640}, {0, 186185, 237640}}, cost: 899942},
	{n: 128, k: 2, guard: poplar.GuardChecksums, supersteps: 1922, checkpoints: 35, modeled: 3718077, dev: [][3]int64{{3111408, 176829, 237640}, {3078300, 186185, 237640}}, cost: 899942},
	{n: 128, k: 2, guard: poplar.GuardInvariants, supersteps: 1956, checkpoints: 35, modeled: 5826483, dev: [][3]int64{{5212912, 180331, 237640}, {5179804, 189687, 237640}}, cost: 899942},
	{n: 128, k: 4, guard: poplar.GuardOff, supersteps: 1922, checkpoints: 35, modeled: 617127, dev: [][3]int64{{0, 187087, 237840}, {0, 186185, 237840}, {0, 186185, 237840}, {0, 186185, 237840}}, cost: 899942},
	{n: 128, k: 4, guard: poplar.GuardChecksums, supersteps: 1922, checkpoints: 35, modeled: 2174855, dev: [][3]int64{{1557728, 187087, 237840}, {1553680, 186185, 237840}, {1538512, 186185, 237840}, {1539788, 186185, 237840}}, cost: 899942},
	{n: 128, k: 4, guard: poplar.GuardInvariants, supersteps: 1956, checkpoints: 35, modeled: 3234889, dev: [][3]int64{{2610656, 190793, 237840}, {2606608, 189687, 237840}, {2591440, 189687, 237840}, {2592716, 189687, 237840}}, cost: 899942},
}

func goldenOf(t *testing.T, n, k int, guard poplar.GuardPolicy) shardGolden {
	t.Helper()
	m, err := datasets.Gaussian(n, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	sv := mustSolver(t, Options{Config: ipu.MK2(), Devices: k, Guard: guard, Cache: NewPlanCache()})
	res, err := sv.SolveShards(context.Background(), m)
	if err != nil {
		t.Fatalf("n=%d K=%d guard=%v: %v", n, k, guard, err)
	}
	g := shardGolden{
		n: n, k: k, guard: guard,
		supersteps:  res.Supersteps,
		checkpoints: res.Checkpoints,
		modeled:     res.ModeledCycles,
		cost:        res.Solution.Cost,
	}
	for _, s := range res.PerDevice {
		g.dev = append(g.dev, [3]int64{s.GuardCycles, s.ExchangeCycles, s.ComputeCycles})
	}
	return g
}

func (g shardGolden) literal() string {
	var dev []string
	for _, d := range g.dev {
		dev = append(dev, fmt.Sprintf("{%d, %d, %d}", d[0], d[1], d[2]))
	}
	return fmt.Sprintf("{n: %d, k: %d, guard: poplar.%s, supersteps: %d, checkpoints: %d, modeled: %d, dev: [][3]int64{%s}, cost: %g},",
		g.n, g.k, guardName(g.guard), g.supersteps, g.checkpoints, g.modeled, strings.Join(dev, ", "), g.cost)
}

func guardName(p poplar.GuardPolicy) string {
	switch p {
	case poplar.GuardOff:
		return "GuardOff"
	case poplar.GuardChecksums:
		return "GuardChecksums"
	case poplar.GuardInvariants:
		return "GuardInvariants"
	}
	return fmt.Sprintf("GuardPolicy(%d)", int(p))
}

// TestShardModeledGolden pins the fabric clock bit for bit over
// n∈{16,64,128} × K∈{1,2,4} × guard∈{off, checksums, invariants}: the
// superstep and checkpoint counts, the modeled wall clock, every chip's
// guard/exchange/compute cycles, and the assignment cost. The modeled
// cycles are the reproduction's science; a change here must be
// deliberate, never the side effect of a host-side optimisation.
func TestShardModeledGolden(t *testing.T) {
	var got []shardGolden
	for _, n := range []int{16, 64, 128} {
		for _, k := range []int{1, 2, 4} {
			for _, guard := range []poplar.GuardPolicy{poplar.GuardOff, poplar.GuardChecksums, poplar.GuardInvariants} {
				got = append(got, goldenOf(t, n, k, guard))
			}
		}
	}
	if len(got) != len(shardGoldens) {
		var b strings.Builder
		for _, g := range got {
			b.WriteString(g.literal() + "\n")
		}
		t.Fatalf("have %d pinned points, computed %d:\n%s", len(shardGoldens), len(got), b.String())
	}
	for i, g := range got {
		if want := shardGoldens[i]; g.literal() != want.literal() {
			t.Errorf("fabric clock moved:\n got  %s\n want %s", g.literal(), want.literal())
		}
	}
}
