package poplar

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"hunipu/internal/ipu"
)

// EngineOption configures engine behaviour.
type EngineOption func(*Engine)

// WithMaxSupersteps bounds execution as a runaway-loop backstop: a
// RepeatWhileTrue whose predicate never clears fails instead of
// hanging. Default: 2^40.
func WithMaxSupersteps(n int64) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.maxSteps = n
		}
	}
}

// WithProfiling collects a per-compute-set execution profile of each
// run, retrievable with Engine.Profile after it.
func WithProfiling() EngineOption {
	return func(e *Engine) { e.profiling = true }
}

// CSProfile is the accumulated profile of one compute set across all
// of its executions in one run.
type CSProfile struct {
	Name          string
	Executions    int64
	ComputeCycles int64
	Vertices      int64
}

// Engine owns a compiled graph + program bound to a device. Compiling
// validates every static property Poplar validates: complete tile
// mappings, tile-memory fit (C2), and absence of intra-compute-set
// races (C1). Running charges the device under the BSP model (C3).
type Engine struct {
	graph    *Graph
	program  Program
	dev      *ipu.Device
	maxSteps int64

	compiledCS map[int]bool
	verified   *VerifyReport
	// profile is indexed by compute-set id; an entry exists from the
	// compute set's compilation on (nil without WithProfiling).
	profiling bool
	profile   []CSProfile
	trace     *traceLog
	// Compile-time scratch, released once NewEngine has compiled the
	// program (see compileComputeSet).
	tally    exchangeTally
	readKeys []readKey
	tileSlot []int

	// Recovery state (see recovery.go).
	ctx          context.Context
	retries      int
	backoff      time.Duration
	cpEvery      int64 // configured cadence (0 = auto)
	cpLive       int64 // effective cadence for the current run
	steps        int64 // leaf steps executed this attempt (incl. replayed)
	decisions    []bool
	replayDecIdx int
	replaySkip   int64
	replaying    bool
	cps          []*checkpoint // ring, oldest first (see guardRingSize)
	cpSpare      *checkpoint   // evicted snapshot recycled for buffers
	report       RunReport

	// Guard state (see guard.go).
	guard        GuardPolicy
	probes       []InvariantProbe
	sums         []uint64 // per-tensor incremental checksums
	pendingSince int64    // earliest undetected silent injection (-1: none)
	silentSeen   int      // silent injections applied this run
}

// NewEngine compiles the graph and program against the device.
func NewEngine(g *Graph, program Program, dev *ipu.Device, opts ...EngineOption) (*Engine, error) {
	if g.cfg.Tiles() != dev.Config().Tiles() {
		return nil, fmt.Errorf("poplar: graph targets %d tiles, device has %d",
			g.cfg.Tiles(), dev.Config().Tiles())
	}
	e := &Engine{
		graph:      g,
		program:    program,
		dev:        dev,
		maxSteps:   1 << 40,
		compiledCS: map[int]bool{},
	}
	for _, o := range opts {
		o(e)
	}
	if program == nil {
		return nil, fmt.Errorf("poplar: nil program")
	}
	// Ahead-of-run verification: mappings, per-tile memory (C2),
	// same-superstep hazards (C1), and program reachability — all
	// proven statically before any cycle is charged.
	e.verified = Verify(g, program)
	notifyVerifyObserver(e.verified)
	if err := e.verified.Err(); err != nil {
		return nil, err
	}
	// Charge every tensor's memory against the live device.
	for _, t := range g.tensors {
		if err := t.validateMapping(); err != nil {
			return nil, err
		}
		for _, r := range t.mapping {
			if err := dev.Alloc(r.Tile, int64(r.End-r.Start)*int64(t.DType.DeviceBytes())); err != nil {
				return nil, fmt.Errorf("poplar: tensor %q: %w", t.Name, err)
			}
		}
	}
	if err := program.compile(e); err != nil {
		return nil, err
	}
	e.tally, e.readKeys, e.tileSlot = exchangeTally{}, nil, nil
	return e, nil
}

// Device returns the bound device (for stats and modeled time).
func (e *Engine) Device() *ipu.Device { return e.dev }

// VerifyReport returns the static verification report produced at
// engine construction. It is always clean (no findings) for a live
// engine — NewEngine refuses to build otherwise — but its Notes carry
// the C4 hot-spot flags for inspection.
func (e *Engine) VerifyReport() *VerifyReport { return e.verified }

// Profile returns the per-compute-set profiles of the latest run,
// sorted by descending compute cycles. Compute sets that share a name
// are reported as one entry; those that never executed are left out.
// Empty without WithProfiling.
func (e *Engine) Profile() []CSProfile {
	out := make([]CSProfile, 0, len(e.profile))
	for _, p := range e.profile {
		if p.Executions > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	merged := out[:0]
	for _, p := range out {
		if n := len(merged); n > 0 && merged[n-1].Name == p.Name {
			merged[n-1].Executions += p.Executions
			merged[n-1].ComputeCycles += p.ComputeCycles
			merged[n-1].Vertices += p.Vertices
			continue
		}
		merged = append(merged, p)
	}
	out = merged
	sort.Slice(out, func(i, j int) bool {
		if out[i].ComputeCycles != out[j].ComputeCycles {
			return out[i].ComputeCycles > out[j].ComputeCycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// resetTelemetry clears the profile and trace at the start of a run, so
// both describe one run (retries included) however many runs the
// engine has served.
func (e *Engine) resetTelemetry() {
	for i := range e.profile {
		e.profile[i] = CSProfile{Name: e.profile[i].Name}
	}
	if e.trace != nil {
		e.trace.events = e.trace.events[:0]
	}
}

// Run executes the program once. Equivalent to RunContext with a
// background context.
func (e *Engine) Run() error { return e.RunContext(context.Background()) }

func (e *Engine) checkBudget() error {
	if e.dev.Stats().Supersteps > e.maxSteps {
		return fmt.Errorf("poplar: exceeded %d supersteps; non-terminating program? %w", e.maxSteps, errBudget)
	}
	return nil
}

// access is one declared vertex touch, for race detection.
type access struct {
	start, end int
	vertex     int
	write      bool
}

// exchangeTally accumulates one exchange phase's per-tile traffic in
// dense slices indexed by tile, then folds it into an ipu.Exchange.
type exchangeTally struct {
	cfg     ipu.Config
	in, out []int64
	cross   int64
}

// reset prepares an empty tally for the graph's tiles.
func (x *exchangeTally) reset(cfg ipu.Config) {
	x.cfg = cfg
	if len(x.in) != cfg.Tiles() {
		x.in = make([]int64, cfg.Tiles())
		x.out = make([]int64, cfg.Tiles())
	} else {
		clear(x.in)
		clear(x.out)
	}
	x.cross = 0
}

// send records b bytes moving point to point from one tile to another.
func (x *exchangeTally) send(from, to int, b int64) {
	x.out[from] += b
	x.in[to] += b
	if x.cfg.IPUOf(from) != x.cfg.IPUOf(to) {
		x.cross += b
	}
}

// exchange folds the tally: every byte appears once on the receiving
// side (the total) and once on the sending side, and the phase is gated
// by the busiest port in either direction.
func (x *exchangeTally) exchange() ipu.Exchange {
	ex := ipu.Exchange{CrossBytes: x.cross}
	for _, b := range x.in {
		ex.TotalBytes += b
		ex.MaxBytes = max(ex.MaxBytes, b)
	}
	for _, b := range x.out {
		ex.MaxBytes = max(ex.MaxBytes, b)
	}
	return ex
}

// readKey is one declared read of a tensor slice by a receiving tile.
type readKey struct {
	t          *Tensor
	start, end int
	tile       int
}

func compareReadKeys(a, b readKey) int {
	if c := cmp.Compare(a.t.id, b.t.id); c != 0 {
		return c
	}
	if c := cmp.Compare(a.start, b.start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.end, b.end); c != 0 {
		return c
	}
	return cmp.Compare(a.tile, b.tile)
}

// compileComputeSet validates the compute set and precomputes its
// static exchange profile and per-tile vertex schedule.
func (e *Engine) compileComputeSet(cs *ComputeSet) error {
	if e.compiledCS[cs.id] {
		return nil
	}
	e.compiledCS[cs.id] = true
	cs.compiled = true
	cfg := e.graph.cfg
	if e.profiling {
		if cs.id >= len(e.profile) {
			e.profile = append(e.profile, make([]CSProfile, cs.id+1-len(e.profile))...)
		}
		e.profile[cs.id] = CSProfile{Name: cs.Name}
	}

	// Vertex validation and race detection live in Verify (see
	// verify.go), which NewEngine runs before any compilation; this
	// pass only keeps the structural checks needed when a compute set
	// is compiled directly in tests.
	for vi, v := range cs.vertices {
		if v.Tile < 0 || v.Tile >= cfg.Tiles() {
			return fmt.Errorf("poplar: compute set %q vertex %d on invalid tile %d", cs.Name, vi, v.Tile)
		}
		if v.Run == nil {
			return fmt.Errorf("poplar: compute set %q vertex %d has no codelet", cs.Name, vi)
		}
		for _, r := range v.reads {
			if r.T == nil {
				return fmt.Errorf("poplar: compute set %q vertex %d: nil tensor ref", cs.Name, vi)
			}
		}
		for _, r := range v.writes {
			if r.T == nil {
				return fmt.Errorf("poplar: compute set %q vertex %d: nil tensor ref", cs.Name, vi)
			}
		}
	}
	e.layoutSchedule(cs)

	// Static exchange profile: any declared slice not resident on the
	// vertex's tile moves over the fabric. Reads are deduplicated per
	// (slice, receiving tile) and the sender is charged once per slice
	// regardless of how many tiles receive it — the IPU exchange
	// fabric multicasts, which is what makes the column-state
	// broadcasts of HunIPU's Steps 4 and 6 affordable. Writes are
	// point-to-point and charged per vertex.
	x := &e.tally
	x.reset(cfg)
	keys := e.readKeys[:0]
	for _, v := range cs.vertices {
		for _, r := range v.reads {
			// A read resident on the vertex's own tile moves nothing.
			if !r.T.residentOn(r.Start, r.End, v.Tile) {
				keys = append(keys, readKey{r.T, r.Start, r.End, v.Tile})
			}
		}
		for _, r := range v.writes {
			bytes := int64(r.T.DType.DeviceBytes())
			r.T.regionsIn(r.Start, r.End, func(s, eEnd, homeTile int) {
				if homeTile != v.Tile {
					x.send(v.Tile, homeTile, int64(eEnd-s)*bytes)
				}
			})
		}
	}
	// Sorting groups each slice's receiving tiles (ascending) together;
	// dropping exact duplicates leaves one read per (slice, tile).
	slices.SortFunc(keys, compareReadKeys)
	keys = slices.Compact(keys)
	e.readKeys = keys
	for lo := 0; lo < len(keys); {
		k := keys[lo]
		hi := lo + 1
		for hi < len(keys) && keys[hi].t == k.t && keys[hi].start == k.start && keys[hi].end == k.end {
			hi++
		}
		group := keys[lo:hi]
		bytes := int64(k.t.DType.DeviceBytes())
		k.t.regionsIn(k.start, k.end, func(s, eEnd, homeTile int) {
			b := int64(eEnd-s) * bytes
			sent := false
			crossed := false
			for _, r := range group {
				if r.tile == homeTile {
					continue
				}
				x.in[r.tile] += b
				sent = true
				if cfg.IPUOf(homeTile) != cfg.IPUOf(r.tile) && !crossed {
					// One multicast crosses the IPU link once.
					x.cross += b
					crossed = true
				}
			}
			if sent {
				x.out[homeTile] += b
			}
		})
		lo = hi
	}
	cs.exch = x.exchange()
	return nil
}

// layoutSchedule groups the compute set's vertices by tile (tiles
// ascending, vertices in declaration order) and carves each tile's
// execution scratch out of a few shared backing arrays.
func (e *Engine) layoutSchedule(cs *ComputeSet) {
	cfg := e.graph.cfg
	if len(e.tileSlot) != cfg.Tiles() {
		e.tileSlot = make([]int, cfg.Tiles())
	}
	count := e.tileSlot
	clear(count)
	var tiles []int
	for _, v := range cs.vertices {
		if count[v.Tile] == 0 {
			tiles = append(tiles, v.Tile)
		}
		count[v.Tile]++
	}
	slices.Sort(tiles)

	nt, threads := len(tiles), cfg.ThreadsPerTile
	verts := make([]*Vertex, len(cs.vertices))
	cycles := make([]int64, len(cs.vertices))
	threadBuf := make([]int64, nt*threads)
	cs.tileVerts = make([][]*Vertex, nt)
	cs.tileCycles = make([][]int64, nt)
	cs.tileThreads = make([][]int64, nt)
	cs.tileWorkers = make([]Worker, nt)
	off := 0
	for i, t := range tiles {
		n := count[t]
		cs.tileVerts[i] = verts[off : off : off+n]
		cs.tileCycles[i] = cycles[off : off+n : off+n]
		cs.tileThreads[i] = threadBuf[i*threads : (i+1)*threads : (i+1)*threads]
		// From here on count maps a tile to its schedule index.
		count[t] = i
		off += n
	}
	for _, v := range cs.vertices {
		i := count[v.Tile]
		cs.tileVerts[i] = append(cs.tileVerts[i], v)
	}
}

// runComputeSet executes every vertex and charges one BSP superstep.
// It runs once per superstep per solve — the hottest loop in the
// engine — so hunipulint audits it and everything it reaches for
// per-execution allocation churn.
//
//hunipulint:hotpath
func (e *Engine) runComputeSet(cs *ComputeSet) error {
	cfg := e.graph.cfg
	var maxCompute int64
	for i := range cs.tileVerts {
		maxCompute = max(maxCompute, runTileVertices(cfg, cs, i))
	}
	vertices := int64(len(cs.vertices))
	if e.profiling {
		p := &e.profile[cs.id]
		p.Executions++
		p.ComputeCycles += maxCompute
		p.Vertices += vertices
	}
	var start int64
	if e.trace != nil {
		start = e.dev.Stats().TotalCycles()
	}
	e.dev.Superstep(maxCompute, cs.exch, vertices)
	if e.trace != nil {
		e.trace.record(cs.Name, start, e.dev.Stats().TotalCycles(), len(cs.vertices))
	}
	return e.checkBudget()
}

// runTileVertices executes the vertices of the idx-th scheduled tile
// and returns that tile's modeled compute time. A top-level function
// (not a closure) using compile-time scratch (cs.tileCycles,
// cs.tileThreads) so the hot superstep loop allocates nothing to call
// it.
func runTileVertices(cfg ipu.Config, cs *ComputeSet, idx int) int64 {
	cycles := cs.tileCycles[idx]
	// One Worker per tile, not per vertex: &w escapes into the codelet
	// call, so a loop-local Worker would heap-allocate once per vertex
	// per superstep — the single largest allocation site in a solve.
	w := &cs.tileWorkers[idx]
	for i, v := range cs.tileVerts[idx] {
		w.cycles = 0
		v.Run(w)
		cycles[i] = w.cycles
	}
	return cfg.TileTimeInto(cycles, cs.tileThreads[idx])
}
