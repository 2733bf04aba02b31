package poplar

import (
	"fmt"

	"hunipu/internal/ipu"
)

// Worker is the execution context handed to a codelet. It accumulates
// the vertex's modeled work in thread-cycles; helpers encode the cost
// idioms the paper relies on (e.g. processing two floats per cycle).
type Worker struct {
	cycles int64
}

// Charge adds n work-cycles (one scalar operation each).
func (w *Worker) Charge(n int64) { w.cycles += n }

// ChargeVec adds the cost of streaming n float elements with the IPU's
// two-floats-at-a-time load/store path (Sections IV-C, IV-H).
func (w *Worker) ChargeVec(n int64) { w.cycles += (n + 1) / 2 }

// ChargeSort adds the cost of sorting n elements (n·log2 n compares).
func (w *Worker) ChargeSort(n int64) {
	if n <= 1 {
		w.Charge(1)
		return
	}
	log := int64(0)
	for v := n; v > 1; v >>= 1 {
		log++
	}
	w.Charge(n * log)
}

// Codelet is the body of a vertex: plain Go that reads and writes the
// tensor slices captured at graph-construction time and charges its
// modeled cost to the worker.
type Codelet func(w *Worker)

// Vertex is one task instance placed on a tile, with its declared data
// dependencies. The engine uses Reads/Writes both for exchange-cost
// accounting and for compile-time race detection (C1).
type Vertex struct {
	Tile   int
	Run    Codelet
	reads  []Ref
	writes []Ref
}

// ComputeSet groups vertices that execute in one BSP compute phase.
// Within a compute set no vertex may write a region another vertex
// touches: the engine rejects such graphs at compile time, mirroring
// the IPU's lack of atomics.
type ComputeSet struct {
	Name     string
	id       int
	vertices []*Vertex

	// compiled state (filled by Engine.compileComputeSet)
	compiled bool
	// exch is the static exchange profile every execution charges: on
	// the IPU a compute set's exchange is fixed when it compiles.
	exch ipu.Exchange
	// Per-superstep execution schedule and scratch, laid out at compile
	// time so the hot superstep loop (Engine.runComputeSet) allocates
	// nothing: tileVerts[i] holds one tile's vertices in declaration
	// order (tiles ascending), and tileCycles[i], tileThreads[i] and
	// tileWorkers[i] are that tile's per-vertex-cycle, per-thread and
	// worker scratch. Safe to reuse across runs — a compiled program
	// serializes runs (see core.CompiledProgram).
	tileVerts   [][]*Vertex
	tileCycles  [][]int64
	tileThreads [][]int64
	tileWorkers []Worker
}

// AddComputeSet declares a new, empty compute set.
func (g *Graph) AddComputeSet(name string) *ComputeSet {
	cs := &ComputeSet{Name: name, id: len(g.computeSets)}
	g.computeSets = append(g.computeSets, cs)
	return cs
}

// AddVertex places a codelet on a tile. Data dependencies are declared
// with Reads/Writes on the returned vertex; undeclared access to data
// on other tiles would silently be free, so codelets must declare every
// slice they touch (tests enforce this for the HunIPU codelets by
// checking exchange totals).
func (cs *ComputeSet) AddVertex(tile int, run Codelet) *Vertex {
	if cs.compiled {
		panic(fmt.Sprintf("poplar: compute set %q modified after compile", cs.Name))
	}
	v := &Vertex{Tile: tile, Run: run}
	cs.vertices = append(cs.vertices, v)
	return v
}

// Reads declares slices the vertex consumes.
func (v *Vertex) Reads(refs ...Ref) *Vertex {
	v.reads = append(v.reads, refs...)
	return v
}

// Writes declares slices the vertex produces (or updates in place).
func (v *Vertex) Writes(refs ...Ref) *Vertex {
	v.writes = append(v.writes, refs...)
	return v
}

// NumVertices returns the vertex count (for balance diagnostics).
func (cs *ComputeSet) NumVertices() int { return len(cs.vertices) }
