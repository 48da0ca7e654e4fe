// Package core implements PHAST itself (Sections III–V and VII of the
// paper): the reduction of single-source shortest paths to one tiny
// upward CH search plus a source-independent linear sweep over the
// downward graph, with
//
//   - three sweep orders — descending rank (the basic algorithm of
//     Section III), level order without relabeling, and the fully
//     reordered layout of Section IV-A where the sweep is a pure linear
//     scan in increasing vertex ID;
//   - one sweep stream per engine, the arc-major words of graph.Packed,
//     which the single-tree kernel walks arc by arc with no per-vertex
//     branch over labels prefilled with Inf, and the multi-tree kernel
//     position by position with implicit initialization (Section IV-C)
//     folded into a sorted cursor over the upward search space, so
//     neither kernel reads a mark array;
//   - multi-tree sweeps that grow k trees at once with the k labels of a
//     vertex contiguous in memory (Section IV-B), relaxing them in
//     register-resident 4-wide lane groups mirroring the paper's SSE
//     code;
//   - parallel sweeps (Section V) on a persistent worker pool that
//     claims chunks of sweep positions in order and starts each once
//     the chunks it depends on are done (internal/sched), with no
//     barrier per level;
//   - parent pointers in G+ and their projection to shortest-path trees
//     of the original graph (Section VII-A).
//
// Every sweep is one kernel per tree family (sweepKind), run over
// [0,n) sequentially or chunk by chunk on the pool.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"phast/internal/bandwidth"
	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/layout"
	"phast/internal/machine"
	"phast/internal/sched"
)

// SweepMode selects the order in which the linear sweep scans vertices.
type SweepMode int

const (
	// SweepReordered relabels all data structures by descending level
	// (stable within a level) so the sweep is a linear scan in increasing
	// ID order with sequential access to vertices, arcs and head labels —
	// the layout of Section IV-A and the default.
	SweepReordered SweepMode = iota
	// SweepLevelOrder keeps original IDs and scans levels top-down,
	// increasing ID within each level (the intermediate variant the paper
	// reports at 0.7s vs 2.0s vs 172ms).
	SweepLevelOrder
	// SweepRankOrder keeps original IDs and scans in descending rank
	// order — the basic PHAST algorithm of Section III.
	SweepRankOrder
)

func (m SweepMode) String() string {
	switch m {
	case SweepReordered:
		return "reordered"
	case SweepLevelOrder:
		return "level order"
	case SweepRankOrder:
		return "rank order"
	default:
		return fmt.Sprintf("SweepMode(%d)", int(m))
	}
}

// DefaultParallelGrain is the historical fixed sweep chunk size (in
// sweep positions). Chunks are now sized by a cache-derived byte budget
// by default (Options.ChunkBytes); this constant survives as the fixed
// grain tests pin through Options.ParallelGrain.
const DefaultParallelGrain = 1024

// Options configures engine construction.
type Options struct {
	// Mode is the sweep order; the zero value is SweepReordered.
	Mode SweepMode
	// Workers is the number of goroutines used when a tree is computed
	// with a parallel sweep; the persistent scheduler parks Workers-1
	// pool goroutines at construction. 0 selects GOMAXPROCS. Adjustable
	// later with Engine.SetWorkers.
	Workers int
	// ParallelGrain, when positive, pins the chunk size in sweep
	// positions — the historical fixed grain, kept for tests and
	// oracles that need deterministic chunk boundaries. 0 (the default)
	// sizes chunks by the ChunkBytes budget instead; a negative grain
	// is an error.
	ParallelGrain int
	// ChunkBytes is the cache-budget chunking knob: the byte span of
	// stream one scheduler chunk covers. 0 derives the budget from the
	// detected cache hierarchy (half the private L2, clamped to
	// [machine.MinChunkBytes, machine.MaxChunkBytes]); explicit values
	// are used as given. Ignored when ParallelGrain pins a fixed grain.
	ChunkBytes int
}

// shared is the immutable, source-independent state every Engine clone
// references: the (possibly relabeled) hierarchy and the sweep schedule.
type shared struct {
	mode        SweepMode
	n           int
	h           *ch.Hierarchy
	up          *graph.Graph
	downIn      *graph.Graph
	order       []int32    // sweep order as engine IDs; nil = identity scan
	levelRanges [][2]int32 // positions in the sweep order, one per level
	toEngine    []int32    // original ID -> engine ID
	toOrig      []int32    // engine ID -> original ID
	// packed is the arc-major sweep stream of downIn in sweep order.
	packed *graph.Packed
	// pos maps an engine vertex ID to its sweep position (the inverse of
	// order); nil when the order is the identity.
	pos []int32

	// Persistent sweep scheduler state (internal/sched), shared by
	// clones and — since metric customization — by sibling engines over
	// other metrics of the same topology: the parked worker pool, the
	// chunk boundaries, and the precomputed per-chunk dependency bounds
	// that relax the Section V level barrier. The pool is reference
	// counted; each shared state Retains it and Releases via finalizer.
	//
	// chunkStart[c] is the first sweep position of chunk c (len
	// numChunks+1, ending at n). Boundaries come either from a fixed
	// position grain (Options.ParallelGrain) or from the cache byte
	// budget (Options.ChunkBytes), so chunk sizes may vary.
	chunkStart []int32
	numChunks  int32
	// chunkDep[c] is the chunk index the completion frontier must pass
	// before chunk c may start (-1: no external dependency). Derived
	// from (*graph.Packed).ChunkDepBoundsAt position bounds at construction.
	chunkDep []int32
	pool     *sched.Pool

	// Snapshot provenance (parts.go): hold pins the backing mmap alive
	// for the lifetime of this shared state, snapshotBytes/coldStart
	// report the restore. All zero for engines built in-process.
	hold          any
	snapshotBytes int64
	coldStart     time.Duration
}

// Engine computes shortest-path trees with PHAST. One Engine owns one
// set of per-source buffers; Clone gives additional workers their own
// buffers over the same shared graphs (the per-core parallelization of
// Section V). An Engine is not safe for concurrent use; clones are
// independent.
type Engine struct {
	s          *shared
	dist       []uint32
	mark       []bool
	parent     []int32 // engine-ID parents in G+; allocated lazily
	hasParents bool    // last tree recorded parents
	queue      *chHeap
	touched    []int32 // engine IDs labeled by the last upward search
	seedPos    []int32 // multi-tree sweeps: sorted sweep positions of touched
	src        int32   // engine ID of the last source, -1 initially
	// multi-tree state (Section IV-B)
	k     int
	kdist []uint32 // k labels per vertex, contiguous
	// lastMulti guards against reading single-tree labels after a
	// multi-tree sweep (they live in different buffers).
	lastMulti bool
	// job is this engine's reusable scheduler state (cursor, frontier,
	// done flags); allocated on the first pooled sweep.
	job *sched.Job
}

// NewEngine prepares PHAST over a built hierarchy. The hierarchy is not
// modified; in SweepReordered mode a relabeled copy is created once.
func NewEngine(h *ch.Hierarchy, opt Options) (*Engine, error) {
	n := h.G.NumVertices()
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.ParallelGrain < 0 {
		return nil, fmt.Errorf("core: ParallelGrain %d is negative", opt.ParallelGrain)
	}
	if opt.ChunkBytes < 0 {
		return nil, fmt.Errorf("core: ChunkBytes %d is negative", opt.ChunkBytes)
	}
	s := &shared{mode: opt.Mode, n: n}
	switch opt.Mode {
	case SweepReordered:
		perm := layout.ByLevelDescending(h.Level)
		hp, err := h.Permute(perm)
		if err != nil {
			return nil, fmt.Errorf("core: relabeling hierarchy: %w", err)
		}
		s.h = hp
		s.toEngine = perm
		s.toOrig = graph.InvertPermutation(perm)
		s.order = nil // identity: the whole point of reordering
		// Engine IDs are already sorted by descending level.
		s.levelRanges = layout.LevelRanges(hp.Level)
	case SweepLevelOrder, SweepRankOrder:
		s.h = h
		s.toEngine = layout.Identity(n)
		s.toOrig = s.toEngine
		if opt.Mode == SweepLevelOrder {
			perm := layout.ByLevelDescending(h.Level)
			s.order = graph.InvertPermutation(perm) // order[i] = i-th vertex to scan
			lvls := make([]int32, n)
			for i, v := range s.order {
				lvls[i] = h.Level[v]
			}
			s.levelRanges = layout.LevelRanges(lvls)
		} else {
			byRank := graph.InvertPermutation(h.Rank)
			ord := make([]int32, n)
			for i := 0; i < n; i++ {
				ord[i] = byRank[n-1-i] // descending rank
			}
			s.order = ord
			// Descending rank is a valid topological order but not grouped
			// by level; the parallel sweep falls back to sequential here.
			s.levelRanges = nil
		}
	default:
		return nil, fmt.Errorf("core: unknown sweep mode %v", opt.Mode)
	}
	s.up = s.h.Up
	s.downIn = s.h.DownIn
	if s.order != nil {
		s.pos = make([]int32, n)
		for i, v := range s.order {
			s.pos[v] = int32(i)
		}
	}
	p, err := graph.NewPacked(s.downIn, s.order)
	if err != nil {
		return nil, fmt.Errorf("core: packing sweep stream: %w", err)
	}
	s.packed = p
	// Chunk boundaries: a positive ParallelGrain pins the historical
	// fixed position grain; otherwise chunks are cut so each one's
	// stream span fits the cache byte budget (Options.ChunkBytes, or
	// half the detected private L2).
	if opt.ParallelGrain > 0 {
		s.chunkStart = graph.UniformChunkStarts(n, opt.ParallelGrain)
	} else {
		budget := opt.ChunkBytes
		if budget == 0 {
			b, err := machine.SweepChunkBytes()
			if err != nil {
				return nil, fmt.Errorf("core: chunk byte budget: %w", err)
			}
			budget = b
		}
		s.chunkStart = s.packed.ChunkStartsByBytes(budget)
	}
	s.numChunks = int32(len(s.chunkStart) - 1)
	// Precompute the per-chunk dependency bounds the persistent
	// scheduler starts chunks by (scheduler.go), walking the same
	// words the workers will read.
	dep, err := s.packed.ChunkDepBoundsAt(s.pos, s.chunkStart)
	if err != nil {
		return nil, fmt.Errorf("core: chunk dependency bounds: %w", err)
	}
	s.chunkDep = make([]int32, len(dep))
	for c, bound := range dep {
		s.chunkDep[c] = posToChunk(s.chunkStart, bound)
	}
	// The pool's workers are spawned once here and parked between
	// queries; they reference only the pool, so when every engine over
	// this shared state is dropped the finalizer can drop its pool
	// reference (a goroutine parked on a channel is a GC root and never
	// collected). Customized sibling engines Retain the same pool, so
	// the workers retire with the last shared state, not the first.
	s.pool = sched.NewPool(opt.Workers)
	runtime.SetFinalizer(s, func(s *shared) { s.pool.Release() })
	return newEngineFromShared(s), nil
}

// posToChunk maps a sweep position to the index of the chunk containing
// it under the given boundary list (-1 stays -1: no dependency). Used
// once per chunk at construction, not in the sweep.
func posToChunk(starts []int32, p int32) int32 {
	if p < 0 {
		return -1
	}
	// The chunk containing p is the last c with starts[c] <= p.
	return int32(sort.Search(len(starts)-1, func(c int) bool { return starts[c+1] > p }))
}

// NewEngineSharingPool builds an engine over h that inherits e's sweep
// schedule wholesale: the relabeling permutation, sweep order, level
// ranges, chunk grain and dependency bounds are shared (not recomputed),
// and the new engine's sweeps run on e's parked worker pool. h must
// have exactly the structure of e's hierarchy — same vertices, same
// arcs in the same order — and differ only in weights and unpacking
// mids, which is precisely what ch.Topology.Customize produces. The
// packed sweep stream, whose words interleave structure and weights, is
// weight-patched from e's rather than rebuilt.
//
// This is the engine half of a metric swap: topology-derived schedule
// state is metric-independent, so installing a customized metric costs
// one relabeling pass and one stream patch instead of a full NewEngine.
func NewEngineSharingPool(e *Engine, h *ch.Hierarchy) (*Engine, error) {
	old := e.s
	if h.G.NumVertices() != old.n {
		return nil, fmt.Errorf("core: sibling hierarchy has %d vertices, engine has %d", h.G.NumVertices(), old.n)
	}
	s := &shared{
		mode:        old.mode,
		n:           old.n,
		order:       old.order,
		levelRanges: old.levelRanges,
		toEngine:    old.toEngine,
		toOrig:      old.toOrig,
		pos:         old.pos,
		chunkStart:  old.chunkStart,
		numChunks:   old.numChunks,
		chunkDep:    old.chunkDep,
	}
	if old.mode == SweepReordered {
		hp, err := h.Permute(old.toEngine)
		if err != nil {
			return nil, fmt.Errorf("core: relabeling sibling hierarchy: %w", err)
		}
		s.h = hp
	} else {
		s.h = h
	}
	s.up = s.h.Up
	s.downIn = s.h.DownIn
	if !s.downIn.SameStructure(old.downIn) {
		return nil, fmt.Errorf("core: sibling hierarchy's downward graph does not match the engine's topology")
	}
	p, err := old.packed.WithWeights(s.downIn, s.order)
	if err != nil {
		return nil, fmt.Errorf("core: patching packed sweep stream: %w", err)
	}
	s.packed = p
	old.pool.Retain()
	s.pool = old.pool
	runtime.SetFinalizer(s, func(s *shared) { s.pool.Release() })
	return newEngineFromShared(s), nil
}

func newEngineFromShared(s *shared) *Engine {
	return &Engine{
		s:     s,
		dist:  make([]uint32, s.n),
		mark:  make([]bool, s.n),
		queue: newCHHeap(s.n),
		src:   -1,
	}
}

// Clone returns an engine sharing all immutable data but owning private
// distance/mark buffers, for use from another goroutine.
func (e *Engine) Clone() *Engine { return newEngineFromShared(e.s) }

// NumVertices returns n.
func (e *Engine) NumVertices() int { return e.s.n }

// Mode returns the sweep mode the engine was built with.
func (e *Engine) Mode() SweepMode { return e.s.mode }

// Hierarchy returns the (possibly relabeled) hierarchy the engine sweeps;
// IDs in it are engine IDs.
func (e *Engine) Hierarchy() *ch.Hierarchy { return e.s.h }

// EngineID translates an original vertex ID to the engine's ID space.
func (e *Engine) EngineID(v int32) int32 { return e.s.toEngine[v] }

// OrigID translates an engine ID back to the original ID space.
func (e *Engine) OrigID(v int32) int32 { return e.s.toOrig[v] }

// LevelRanges returns the sweep-position ranges of each level (descending
// level order). In SweepRankOrder mode it returns nil. The slice is
// shared; callers must not modify it.
func (e *Engine) LevelRanges() [][2]int32 { return e.s.levelRanges }

// Packed returns the arc-major sweep stream the engine scans.
func (e *Engine) Packed() *graph.Packed { return e.s.packed }

// StreamBytes returns the bytes of sweep stream one tree scans front to
// back: the packed stream's words in bytes. This is the graph term of
// the achieved-GB/s accounting.
func (e *Engine) StreamBytes() int64 { return int64(e.s.packed.Words()) * 4 }

// SweepBytes returns the modeled bytes one k-tree sweep on this engine
// touches (bandwidth.SweepTraffic over the engine's actual layout).
// Divide by the measured sweep time for achieved GB/s against the
// Section VIII-B lower bounds; k <= 0 is treated as a single tree.
func (e *Engine) SweepBytes(k int) int64 {
	t := bandwidth.SweepTraffic{N: e.s.n, M: e.s.downIn.NumArcs(), K: k, StreamBytes: e.StreamBytes(), Ordered: e.s.order != nil}
	return t.Bytes()
}

// Dist returns the distance label of original-ID vertex v from the last
// Tree/TreeParallel call, or graph.Inf if unreached.
func (e *Engine) Dist(v int32) uint32 {
	if e.lastMulti {
		panic("core: last computation was MultiTree; read labels with MultiDist")
	}
	return e.dist[e.s.toEngine[v]]
}

// RawDistances exposes the engine-ID-indexed label array of the last
// tree. Hot consumers (benchmarks, applications) iterate it directly.
//
// Aliasing contract: the returned slice is the engine's working buffer,
// not a snapshot. The next Tree/TreeParallel/TreeWithParents call on
// this engine silently overwrites it (MultiTree additionally invalidates
// it semantically), and callers must never modify it. Results that must
// outlive the next sweep — anything handed to another goroutine, queued,
// or cached — must be copied out with CopyDistances first.
func (e *Engine) RawDistances() []uint32 { return e.dist }

// CopyDistances writes the labels of the last tree into buf indexed by
// original vertex ID (graph.Inf marks unreached vertices). len(buf) must
// be n. Unlike RawDistances, buf is a private snapshot: it stays valid
// across later sweeps on this engine, which is the read-back form every
// concurrent consumer (e.g. internal/server) must use.
func (e *Engine) CopyDistances(buf []uint32) {
	if e.lastMulti {
		panic("core: last computation was MultiTree; read labels with CopyLaneDistances")
	}
	if len(buf) != e.s.n {
		panic("core: CopyDistances buffer has wrong length")
	}
	for orig := range buf {
		buf[orig] = e.dist[e.s.toEngine[orig]]
	}
}

// Source returns the original ID of the last tree's source, or -1.
func (e *Engine) Source() int32 {
	if e.src < 0 {
		return -1
	}
	return e.s.toOrig[e.src]
}
