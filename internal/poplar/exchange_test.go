package poplar

import (
	"fmt"
	"math/rand"
	"testing"

	"hunipu/internal/ipu"
)

// referenceExchange recomputes a compute set's exchange profile the
// straightforward way: per-tile maps, walked one element at a time.
// Reads are deduplicated per (slice, receiving tile) and the sender
// pays once per multicast; writes are point-to-point per vertex.
func referenceExchange(cfg ipu.Config, cs *ComputeSet) ipu.Exchange {
	in, out := map[int]int64{}, map[int]int64{}
	var cross int64
	type slice struct {
		t          *Tensor
		start, end int
	}
	readers := map[slice]map[int]bool{}
	for _, v := range cs.vertices {
		for _, r := range v.reads {
			k := slice{r.T, r.Start, r.End}
			if readers[k] == nil {
				readers[k] = map[int]bool{}
			}
			readers[k][v.Tile] = true
		}
		for _, r := range v.writes {
			b := int64(r.T.DType.DeviceBytes())
			for i := r.Start; i < r.End; i++ {
				home := r.T.TileOf(i)
				if home == v.Tile {
					continue
				}
				out[v.Tile] += b
				in[home] += b
				if cfg.IPUOf(home) != cfg.IPUOf(v.Tile) {
					cross += b
				}
			}
		}
	}
	for k, tiles := range readers {
		b := int64(k.t.DType.DeviceBytes())
		for i := k.start; i < k.end; i++ {
			home := k.t.TileOf(i)
			sent, crossed := false, false
			for tile := range tiles {
				if tile == home {
					continue
				}
				in[tile] += b
				sent = true
				if cfg.IPUOf(home) != cfg.IPUOf(tile) {
					crossed = true
				}
			}
			if sent {
				out[home] += b
			}
			if crossed {
				cross += b
			}
		}
	}
	return foldReference(in, out, cross)
}

// referenceCopyExchange is referenceExchange for a Copy program.
func referenceCopyExchange(cfg ipu.Config, p *copyProg) ipu.Exchange {
	in, out := map[int]int64{}, map[int]int64{}
	var cross int64
	b := int64(p.dst.T.DType.DeviceBytes())
	for i := 0; i < p.src.Len(); i++ {
		from, to := p.src.T.TileOf(p.src.Start+i), p.dst.T.TileOf(p.dst.Start+i)
		if from == to {
			continue
		}
		out[from] += b
		in[to] += b
		if cfg.IPUOf(from) != cfg.IPUOf(to) {
			cross += b
		}
	}
	return foldReference(in, out, cross)
}

func foldReference(in, out map[int]int64, cross int64) ipu.Exchange {
	ex := ipu.Exchange{CrossBytes: cross}
	for _, b := range in {
		ex.TotalBytes += b
		ex.MaxBytes = max(ex.MaxBytes, b)
	}
	for _, b := range out {
		ex.MaxBytes = max(ex.MaxBytes, b)
	}
	return ex
}

// randomMapping maps t in contiguous chunks of random length, each on a
// random tile.
func randomMapping(rng *rand.Rand, g *Graph, t *Tensor) {
	n := t.NumElements()
	for s := 0; s < n; {
		e := min(n, s+1+rng.Intn(6))
		g.SetTileMapping(t, rng.Intn(g.cfg.Tiles()), s, e)
		s = e
	}
}

// randomSlice picks a non-empty slice of t.
func randomSlice(rng *rand.Rand, t *Tensor) Ref {
	n := t.NumElements()
	s := rng.Intn(n)
	return t.Slice(s, s+1+rng.Intn(min(n-s, 12)))
}

// TestExchangeMatchesReference compiles seeded random graphs — one- and
// two-chip configs, slices read from several tiles (and twice from one
// tile), remote writes, cross-tile copies — and checks every compiled
// exchange profile against the map-based reference.
func TestExchangeMatchesReference(t *testing.T) {
	var sawCross, sawMulticast bool
	for _, ipus := range []int{1, 2} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("ipus=%d/seed=%d", ipus, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := smallCfg()
				cfg.IPUs = ipus
				g := NewGraph(cfg)
				var inputs []*Tensor
				for i := 0; i < 3; i++ {
					dtype := []DType{Float, Int, Bool}[i]
					in := g.AddVariable(fmt.Sprintf("in%d", i), dtype, 20+rng.Intn(60))
					randomMapping(rng, g, in)
					inputs = append(inputs, in)
				}
				var progs []Program
				var sets []*ComputeSet
				var copies []*copyProg
				for c := 0; c < 4; c++ {
					cs := g.AddComputeSet(fmt.Sprintf("cs%d", c))
					nv := 1 + rng.Intn(24)
					// Each vertex writes its own element of out, which
					// lives on a random tile: writes are often remote.
					out := g.AddVariable(fmt.Sprintf("out%d", c), Float, nv)
					randomMapping(rng, g, out)
					shared := randomSlice(rng, inputs[rng.Intn(len(inputs))])
					sharedReaders := map[int]bool{}
					for vi := 0; vi < nv; vi++ {
						v := cs.AddVertex(rng.Intn(cfg.Tiles()), func(w *Worker) { w.Charge(1) })
						v.Writes(out.Index(vi))
						for r := rng.Intn(4); r > 0; r-- {
							v.Reads(randomSlice(rng, inputs[rng.Intn(len(inputs))]))
						}
						if rng.Intn(2) == 0 {
							v.Reads(shared)
							sharedReaders[v.Tile] = true
						}
						if rng.Intn(4) == 0 {
							v.Reads(shared) // a duplicate read from one tile
						}
					}
					sawMulticast = sawMulticast || len(sharedReaders) > 2
					sets = append(sets, cs)
					progs = append(progs, Execute(cs))
					src := randomSlice(rng, inputs[0])
					dst := g.AddVariable(fmt.Sprintf("dst%d", c), Float, src.Len())
					randomMapping(rng, g, dst)
					cp := Copy(src, dst.Slice(0, dst.NumElements()))
					copies = append(copies, cp.(*copyProg))
					progs = append(progs, cp)
				}
				if _, err := NewEngine(g, Sequence(progs...), newDev(t, cfg)); err != nil {
					t.Fatal(err)
				}
				for _, cs := range sets {
					if want := referenceExchange(cfg, cs); cs.exch != want {
						t.Errorf("%s: compiled exchange %+v, reference %+v", cs.Name, cs.exch, want)
					}
					sawCross = sawCross || cs.exch.CrossBytes > 0
				}
				for i, p := range copies {
					if want := referenceCopyExchange(cfg, p); p.exch != want {
						t.Errorf("copy %d: compiled exchange %+v, reference %+v", i, p.exch, want)
					}
				}
			})
		}
	}
	if !sawCross || !sawMulticast {
		t.Fatalf("generator too tame: cross-chip traffic seen %v, one slice read from three or more tiles %v", sawCross, sawMulticast)
	}
}
