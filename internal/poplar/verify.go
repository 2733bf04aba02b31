package poplar

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrVerify is the sentinel wrapped by every graph-verification
// failure; match with errors.Is.
var ErrVerify = errors.New("poplar: graph verification failed")

// VerifyFinding is one diagnostic from the ahead-of-run verifier.
// Check names the rule ("mapping", "memory", "race", "vertex",
// "unreachable", "foreign", "hotspot"); Subject names the tensor,
// compute set, or tile concerned.
type VerifyFinding struct {
	Check   string `json:"check"`
	Subject string `json:"subject"`
	Message string `json:"message"`
}

func (f VerifyFinding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Check, f.Subject, f.Message)
}

// VerifyReport is the result of statically verifying a graph+program
// pair. Findings are violations that make the graph unrunnable (the
// engine refuses to compile); Notes are informational flags — chiefly
// C4 exchange hot spots — that are legitimate in some graphs (the
// paper's own broadcasts and probe gathers) but worth surfacing.
type VerifyReport struct {
	Findings []VerifyFinding `json:"findings"`
	Notes    []VerifyFinding `json:"notes"`
}

// Err returns nil when the report is clean, or an error wrapping
// ErrVerify that carries the first finding's message.
func (r *VerifyReport) Err() error {
	if len(r.Findings) == 0 {
		return nil
	}
	return &VerifyError{Report: r}
}

// JSON renders the report machine-readably (stable field order,
// empty slices as []).
func (r *VerifyReport) JSON() ([]byte, error) {
	cp := VerifyReport{Findings: r.Findings, Notes: r.Notes}
	if cp.Findings == nil {
		cp.Findings = []VerifyFinding{}
	}
	if cp.Notes == nil {
		cp.Notes = []VerifyFinding{}
	}
	return json.MarshalIndent(cp, "", "  ")
}

// VerifyError is the typed error produced when verification finds
// violations. It wraps ErrVerify and preserves the full report.
type VerifyError struct {
	Report *VerifyReport
}

func (e *VerifyError) Error() string {
	first := e.Report.Findings[0]
	if n := len(e.Report.Findings); n > 1 {
		return fmt.Sprintf("%v: %s (and %d more)", ErrVerify, first, n-1)
	}
	return fmt.Sprintf("%v: %s", ErrVerify, first)
}

func (e *VerifyError) Unwrap() error { return ErrVerify }

// Verify observer: a test hook observing every report the engine
// produces, regardless of how deep the NewEngine call is buried.
var (
	verifyObsMu sync.Mutex
	verifyObs   func(*VerifyReport)
)

// SetVerifyObserver installs fn to receive every VerifyReport produced
// by NewEngine (nil uninstalls). Used by the conformance suite to
// prove each solver's graph passed verification.
func SetVerifyObserver(fn func(*VerifyReport)) {
	verifyObsMu.Lock()
	verifyObs = fn
	verifyObsMu.Unlock()
}

func notifyVerifyObserver(r *VerifyReport) {
	verifyObsMu.Lock()
	fn := verifyObs
	verifyObsMu.Unlock()
	if fn != nil {
		fn(r)
	}
}

// gatherNoteThreshold is the distinct-remote-tile fan-in above which a
// single vertex's reads are flagged as a C4 gather hot spot (the
// DynamicSlice probe pattern: cheap on CPUs, serialised exchange on
// the IPU's static fabric).
const gatherNoteThreshold = 8

// Verify statically checks a graph+program pair against the paper's
// hardware constraints before any compilation or execution:
//
//   - mapping: every non-empty tensor is covered exactly once by its
//     tile mapping (no gaps, no overlaps) — the premise of C4's static
//     data layout.
//   - memory: per-tile resident tensor bytes fit Config.TileMemory
//     (C2). The proof is static: the sum over all mapped regions,
//     independent of execution order.
//   - vertex: every vertex sits on a valid tile and has a codelet.
//   - race: within each compute set, no two vertices touch overlapping
//     element intervals when at least one writes (C1 — the IPU has no
//     atomics, so same-superstep write/write and read/write overlap is
//     a hardware data race).
//   - foreign: the program references only compute sets and predicate
//     tensors registered on this graph.
//
// Informational notes (never fatal) flag compute sets the program
// never executes ("unreachable" — legal when a graph is reused with a
// sub-program, but usually a construction bug) and C4 exchange hot
// spots: vertices gathering from many remote tiles, the pattern behind
// DynamicSlice's poor fit on the static exchange fabric.
func Verify(g *Graph, program Program) *VerifyReport {
	r := &VerifyReport{}
	verifyMappings(g, r)
	verifyMemory(g, r)
	reached := verifyProgram(g, program, r)
	sc := &verifyScratch{seen: make([]int, g.cfg.Tiles())}
	for _, cs := range g.computeSets {
		if reached[cs.id] {
			verifyComputeSet(g, cs, r, sc)
		} else {
			// A note, not a violation: graphs are legitimately reused
			// with different programs (e.g. a warm-up subset), so an
			// unexecuted compute set only *suggests* a construction bug.
			r.Notes = append(r.Notes, VerifyFinding{
				Check:   "unreachable",
				Subject: cs.Name,
				Message: fmt.Sprintf("compute set %q is declared but never executed by the program", cs.Name),
			})
		}
	}
	return r
}

// verifyMappings checks coverage and overlap for every tensor.
func verifyMappings(g *Graph, r *VerifyReport) {
	for _, t := range g.tensors {
		if err := t.validateMapping(); err != nil {
			r.Findings = append(r.Findings, VerifyFinding{
				Check:   "mapping",
				Subject: t.Name,
				Message: err.Error(),
			})
			continue
		}
		for _, reg := range t.mapping {
			if reg.Tile < 0 || reg.Tile >= g.cfg.Tiles() {
				r.Findings = append(r.Findings, VerifyFinding{
					Check:   "mapping",
					Subject: t.Name,
					Message: fmt.Sprintf("region [%d,%d) mapped to invalid tile %d", reg.Start, reg.End, reg.Tile),
				})
			}
		}
	}
}

// verifyMemory proves the C2 budget per tile: the byte total of all
// regions resident on each tile must fit Config.TileMemory.
func verifyMemory(g *Graph, r *VerifyReport) {
	perTile := make([]int64, g.cfg.Tiles())
	for _, t := range g.tensors {
		w := int64(t.DType.DeviceBytes())
		for _, reg := range t.mapping {
			// Regions on invalid tiles are verifyMappings findings.
			if reg.Tile >= 0 && reg.Tile < len(perTile) {
				perTile[reg.Tile] += int64(reg.End-reg.Start) * w
			}
		}
	}
	for tile, used := range perTile {
		if used > int64(g.cfg.TileMemory) {
			r.Findings = append(r.Findings, VerifyFinding{
				Check:   "memory",
				Subject: fmt.Sprintf("tile %d", tile),
				Message: fmt.Sprintf("tile memory exceeded: %d bytes resident, %d available (C2)", used, g.cfg.TileMemory),
			})
		}
	}
}

// verifyProgram walks the static control-flow tree, checking that
// every referenced compute set and predicate belongs to this graph.
// It returns which compute sets are reachable, indexed by id.
func verifyProgram(g *Graph, program Program, r *VerifyReport) []bool {
	reached := make([]bool, len(g.computeSets))
	checkPred := func(pred *Tensor, kind string) {
		if pred == nil {
			r.Findings = append(r.Findings, VerifyFinding{
				Check:   "foreign",
				Subject: kind,
				Message: kind + " has a nil predicate tensor",
			})
			return
		}
		if !g.owns(pred) {
			r.Findings = append(r.Findings, VerifyFinding{
				Check:   "foreign",
				Subject: pred.Name,
				Message: fmt.Sprintf("%s predicate %q belongs to a different graph", kind, pred.Name),
			})
		}
	}
	checkRef := func(ref Ref, kind string) {
		if ref.T == nil {
			r.Findings = append(r.Findings, VerifyFinding{
				Check:   "foreign",
				Subject: kind,
				Message: kind + " references a nil tensor",
			})
			return
		}
		if !g.owns(ref.T) {
			r.Findings = append(r.Findings, VerifyFinding{
				Check:   "foreign",
				Subject: ref.T.Name,
				Message: fmt.Sprintf("%s references tensor %q from a different graph", kind, ref.T.Name),
			})
		}
	}
	var walk func(p Program)
	walk = func(p Program) {
		switch x := p.(type) {
		case nil:
		case *seqProg:
			for _, q := range x.ps {
				if q != nil {
					walk(q)
				}
			}
		case *execProg:
			if x.cs == nil {
				r.Findings = append(r.Findings, VerifyFinding{
					Check:   "foreign",
					Subject: "Execute",
					Message: "Execute references a nil compute set",
				})
				return
			}
			if !g.ownsComputeSet(x.cs) {
				r.Findings = append(r.Findings, VerifyFinding{
					Check:   "foreign",
					Subject: x.cs.Name,
					Message: fmt.Sprintf("compute set %q belongs to a different graph", x.cs.Name),
				})
				return
			}
			reached[x.cs.id] = true
		case *repeatProg:
			walk(x.body)
		case *whileProg:
			checkPred(x.pred, "RepeatWhileTrue")
			walk(x.body)
		case *ifProg:
			checkPred(x.pred, "If")
			walk(x.then)
			if x.els != nil {
				walk(x.els)
			}
		case *copyProg:
			checkRef(x.src, "Copy source")
			checkRef(x.dst, "Copy destination")
		}
	}
	walk(program)
	return reached
}

// verifyScratch is buffer space Verify reuses across compute sets.
type verifyScratch struct {
	// seen[tile] == stamp marks a tile already counted for the vertex
	// being checked; every vertex of every compute set gets a new stamp.
	seen  []int
	stamp int
	// bucket and next hold per-tensor offsets into accs.
	bucket, next []int
	accs         []access
}

// verifyComputeSet checks vertex placement and same-superstep hazards
// (C1), and emits C4 gather-hot-spot notes.
func verifyComputeSet(g *Graph, cs *ComputeSet, r *VerifyReport, sc *verifyScratch) {
	// Accesses are bucketed by tensor id (a counting sort: this pass
	// sizes the buckets, the next fills them), so each tensor's accesses
	// arrive in vertex order.
	bucket := slices.Grow(sc.bucket[:0], len(g.tensors)+1)[:len(g.tensors)+1]
	clear(bucket)
	for vi, v := range cs.vertices {
		if v.Tile < 0 || v.Tile >= g.cfg.Tiles() {
			r.Findings = append(r.Findings, VerifyFinding{
				Check:   "vertex",
				Subject: cs.Name,
				Message: fmt.Sprintf("vertex %d placed on invalid tile %d", vi, v.Tile),
			})
		}
		if v.Run == nil {
			r.Findings = append(r.Findings, VerifyFinding{
				Check:   "vertex",
				Subject: cs.Name,
				Message: fmt.Sprintf("vertex %d has no codelet", vi),
			})
		}
		for _, refs := range [2][]Ref{v.reads, v.writes} {
			for _, ref := range refs {
				switch {
				case ref.T == nil:
				case !g.owns(ref.T):
					r.Findings = append(r.Findings, VerifyFinding{
						Check:   "foreign",
						Subject: cs.Name,
						Message: fmt.Sprintf("vertex %d references tensor %q from a different graph", vi, ref.T.Name),
					})
				default:
					bucket[ref.T.id+1]++
				}
			}
		}
		sc.stamp++
		if n := remoteSourceTiles(v, sc.seen, sc.stamp); n > gatherNoteThreshold {
			r.Notes = append(r.Notes, VerifyFinding{
				Check:   "hotspot",
				Subject: cs.Name,
				Message: fmt.Sprintf("vertex %d on tile %d gathers from %d remote tiles; on the static exchange fabric this serialises (C4)", vi, v.Tile, n),
			})
		}
	}
	for i := 1; i < len(bucket); i++ {
		bucket[i] += bucket[i-1]
	}
	accs := slices.Grow(sc.accs[:0], bucket[len(bucket)-1])[:bucket[len(bucket)-1]]
	next := append(sc.next[:0], bucket[:len(bucket)-1]...)
	sc.bucket, sc.next, sc.accs = bucket, next, accs
	for vi, v := range cs.vertices {
		for k, refs := range [2][]Ref{v.reads, v.writes} {
			for _, ref := range refs {
				if ref.T != nil && g.owns(ref.T) {
					accs[next[ref.T.id]] = access{ref.Start, ref.End, vi, k == 1}
					next[ref.T.id]++
				}
			}
		}
	}
	// Sweep tensors in creation order, each tensor's accesses by start.
	// The order is total, so the first hazard reported is stable.
	for id, t := range g.tensors {
		tensorAccs := accs[bucket[id]:bucket[id+1]]
		slices.SortFunc(tensorAccs, compareAccesses)
		maxEnd, maxEndIdx := -1, -1
		for i, a := range tensorAccs {
			if i > 0 && a.start < maxEnd {
				b := tensorAccs[maxEndIdx]
				if a.vertex != b.vertex && (a.write || b.write) {
					kind := "read/write"
					if a.write && b.write {
						kind = "write/write"
					}
					r.Findings = append(r.Findings, VerifyFinding{
						Check:   "race",
						Subject: cs.Name,
						Message: fmt.Sprintf("data race in compute set %q on tensor %q: vertices %d and %d %s overlap in [%d,%d) (C1: no atomics)",
							cs.Name, t.Name, b.vertex, a.vertex, kind, a.start, min(a.end, maxEnd)),
					})
					// One hazard per tensor keeps the report readable.
					break
				}
			}
			if a.end > maxEnd {
				maxEnd, maxEndIdx = a.end, i
			}
		}
	}
}

// compareAccesses orders one tensor's accesses by start, then vertex,
// reads before writes, then end.
func compareAccesses(a, b access) int {
	if c := cmp.Compare(a.start, b.start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.vertex, b.vertex); c != 0 {
		return c
	}
	if a.write != b.write {
		if a.write {
			return 1
		}
		return -1
	}
	return cmp.Compare(a.end, b.end)
}

// remoteSourceTiles counts the distinct tiles, other than the vertex's
// own, that home any element the vertex reads. seen is per-tile scratch
// shared across vertices; stamp is unique to this vertex, so nothing
// needs clearing between vertices.
func remoteSourceTiles(v *Vertex, seen []int, stamp int) int {
	n := 0
	for _, ref := range v.reads {
		if ref.T == nil {
			continue
		}
		ref.T.regionsIn(ref.Start, ref.End, func(_, _ int, homeTile int) {
			switch {
			case homeTile == v.Tile:
			case homeTile < 0 || homeTile >= len(seen):
				n++ // an invalid mapping, already a finding of its own
			case seen[homeTile] != stamp:
				seen[homeTile] = stamp
				n++
			}
		})
	}
	return n
}
