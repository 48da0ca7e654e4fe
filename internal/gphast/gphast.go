// Package gphast implements GPHAST (Section VI of the paper): the PHAST
// linear sweep outsourced to a GPU, here the SIMT simulator of
// internal/simt (see DESIGN.md for the substitution rationale).
//
// The division of labor follows the paper exactly: the CPU runs the
// upward CH search for each source and copies the search space (<2KB)
// to the device; the device holds G↓ (in the reordered layout) and the
// distance labels, and the CPU launches one kernel per level, each
// thread writing exactly one distance label. When k trees are built at
// once, threads are assigned to warps so that the threads of a warp work
// on the same vertex (with k=32 a warp handles exactly one vertex),
// which keeps the instruction flow of a warp uniform.
package gphast

import (
	"fmt"
	"time"

	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/simt"
)

// Engine runs PHAST sweeps on a simulated GPU.
type Engine struct {
	ce  *core.Engine
	dev *simt.Device
	n   int
	k   int // trees in the last batch

	// Device-resident graph (engine-ID space, reordered layout).
	first   *simt.Buffer // n+1
	heads   *simt.Buffer // m: tails of incoming downward arcs
	weights *simt.Buffer // m
	dist    *simt.Buffer // maxK*n labels, k per vertex contiguous
	mark    *simt.Buffer // n round stamps (version-stamped visited bits)
	parent  *simt.Buffer // n G+ parents; allocated by EnableParents

	// Seed staging (the per-tree search spaces).
	seedV, seedD, seedLane *simt.Buffer
	uniqV                  *simt.Buffer

	maxK        int
	round       uint32
	levelRanges [][2]int32

	// Host scratch, reused across batches so the per-batch CPU phase
	// stays allocation-free (the //phast:hotpath discipline).
	hVerts   []int32
	hDists   []uint32
	hParents []int32  // TreeWithParents' upward-search parents
	seen     []uint32 // round-stamped dedupe for seed vertices
	hSeedV   []uint32 // seed staging: vertices, labels, lanes/parents, dedup
	hSeedD   []uint32
	hSeedL   []uint32
	hUniq    []uint32
	oneSrc   [1]int32 // Tree's single-source batch, kept off the heap

	lastBatchTime time.Duration
}

// NewEngine uploads the downward graph of ce to dev and prepares buffers
// for up to maxK trees per sweep. ce must use the reordered sweep mode
// (the GPU kernels index levels by consecutive vertex ranges).
func NewEngine(ce *core.Engine, dev *simt.Device, maxK int) (*Engine, error) {
	if ce.Mode() != core.SweepReordered {
		return nil, fmt.Errorf("gphast: engine must use SweepReordered, got %v", ce.Mode())
	}
	if maxK < 1 {
		return nil, fmt.Errorf("gphast: maxK must be positive, got %d", maxK)
	}
	n := ce.NumVertices()
	downIn := ce.Hierarchy().DownIn
	m := downIn.NumArcs()
	e := &Engine{
		ce: ce, dev: dev, n: n, maxK: maxK,
		levelRanges: ce.LevelRanges(),
		seen:        make([]uint32, n),
	}
	var err error
	alloc := func(name string, sz int) *simt.Buffer {
		if err != nil {
			return nil
		}
		var b *simt.Buffer
		b, err = dev.Alloc(name, sz)
		return b
	}
	e.first = alloc("first", n+1)
	e.heads = alloc("arc.heads", m)
	e.weights = alloc("arc.weights", m)
	e.dist = alloc("dist", maxK*n)
	e.mark = alloc("mark", n)
	const seedCap = 1 << 16
	e.seedV = alloc("seed.vertex", seedCap)
	e.seedD = alloc("seed.dist", seedCap)
	e.seedLane = alloc("seed.lane", seedCap)
	e.uniqV = alloc("seed.unique", seedCap)
	if err != nil {
		return nil, err
	}
	// Upload the graph once (amortized over all trees, as on the card),
	// staged from the downward CSR whatever stream the CPU engine sweeps.
	fw := make([]uint32, n+1)
	for i, x := range downIn.FirstOut() {
		fw[i] = uint32(x)
	}
	hw := make([]uint32, m)
	ww := make([]uint32, m)
	for i, a := range downIn.ArcList() {
		hw[i] = uint32(a.Head)
		ww[i] = a.Weight
	}
	e.first.CopyIn(0, fw)
	e.heads.CopyIn(0, hw)
	e.weights.CopyIn(0, ww)
	return e, nil
}

// Device returns the underlying simulated GPU.
func (e *Engine) Device() *simt.Device { return e.dev }

// OrigID translates an engine ID back to the original vertex ID space.
func (e *Engine) OrigID(v int32) int32 { return e.ce.OrigID(v) }

// EngineID translates an original vertex ID to the engine ID space.
func (e *Engine) EngineID(v int32) int32 { return e.ce.EngineID(v) }

// MemoryUsed reports device memory held by this engine's buffers — the
// "memory [MB]" column of Table III.
func (e *Engine) MemoryUsed() int64 { return e.dev.MemoryUsed() }

// K returns the tree count of the last batch.
func (e *Engine) K() int { return e.k }

// LastBatchModeledTime returns the modeled device+PCIe time of the last
// Tree/MultiTree call (total for the batch, not per tree).
func (e *Engine) LastBatchModeledTime() time.Duration { return e.lastBatchTime }

// Tree computes one shortest-path tree from the original-ID source.
//
//phast:hotpath
func (e *Engine) Tree(source int32) {
	e.oneSrc[0] = source
	e.MultiTree(e.oneSrc[:])
}

// checkBatchSize panics when a batch exceeds the engine's capacity. It
// lives outside the hot path so the formatting machinery (which boxes
// its operands) stays out of the annotated kernel driver; the
// //phast:offpath marker records that claim for the interprocedural
// checker — the Sprintf only runs on the panicking branch.
//
//phast:offpath
func (e *Engine) checkBatchSize(k int) {
	if k > e.maxK {
		panic(fmt.Sprintf("gphast: k=%d exceeds maxK=%d", k, e.maxK))
	}
}

// MultiTree computes len(sources) trees in one device sweep; k must not
// exceed the maxK the engine was created with.
//
//phast:hotpath
func (e *Engine) MultiTree(sources []int32) {
	k := len(sources)
	if k == 0 {
		e.k = 0
		return
	}
	e.checkBatchSize(k)
	e.k = k
	e.round++
	round := e.round
	start := e.dev.Stats().ModeledTime

	// Phase 1 (CPU): upward CH searches; collect the union of the search
	// spaces and per-lane seed triples into reused staging slices.
	e.hSeedV = e.hSeedV[:0]
	e.hSeedD = e.hSeedD[:0]
	e.hSeedL = e.hSeedL[:0]
	e.hUniq = e.hUniq[:0]
	for lane, src := range sources {
		e.hVerts, e.hDists = e.ce.UpwardSearchSpace(src, e.hVerts[:0], e.hDists[:0])
		for i, v := range e.hVerts {
			if e.seen[v] != round {
				e.seen[v] = round
				e.hUniq = append(e.hUniq, uint32(v))
			}
			e.hSeedV = append(e.hSeedV, uint32(v))
			e.hSeedD = append(e.hSeedD, e.hDists[i])
			e.hSeedL = append(e.hSeedL, uint32(lane))
		}
	}
	if len(e.hSeedV) > e.seedV.Len() {
		panic("gphast: search space exceeds seed buffer capacity")
	}
	// Copy the search spaces to the device (the <2KB transfer of §VI).
	e.uniqV.CopyIn(0, e.hUniq)
	e.seedV.CopyIn(0, e.hSeedV)
	e.seedD.CopyIn(0, e.hSeedD)
	e.seedLane.CopyIn(0, e.hSeedL)

	// Seed kernel A: stamp each touched vertex with this round and reset
	// all of its k lanes to Inf (implicit initialization, Section IV-C:
	// only the tiny search space is ever initialized).
	dist, mark := e.dist, e.mark
	uniqV, seedV, seedD, seedLane := e.uniqV, e.seedV, e.seedD, e.seedLane
	kk := int32(k)
	e.dev.Launch("seed.init", len(e.hUniq), func(t *simt.Thread) {
		v := int32(t.Load(uniqV, t.Global))
		t.Store(mark, v, round)
		base := v * kk
		for j := int32(0); j < kk; j++ {
			t.Store(dist, base+j, graph.Inf)
		}
	})
	// Seed kernel B: scatter the upward-search labels into their lanes.
	e.dev.Launch("seed.scatter", len(e.hSeedV), func(t *simt.Thread) {
		v := int32(t.Load(seedV, t.Global))
		d := t.Load(seedD, t.Global)
		lane := int32(t.Load(seedLane, t.Global))
		t.Store(dist, v*kk+lane, d)
	})

	// Phase 2: one kernel per level, processed top-down; each thread owns
	// one (vertex, lane) label. Lanes of a vertex are consecutive thread
	// IDs, so a warp's threads work on the same or adjacent vertices and
	// read the arc arrays at the same addresses.
	first, heads, weights := e.first, e.heads, e.weights
	for _, r := range e.levelRanges {
		lo, size := r[0], r[1]-r[0]
		e.dev.Launch("sweep.level", int(size)*k, func(t *simt.Thread) {
			v := lo + t.Global/kk
			lane := t.Global % kk
			t.ALU(2)
			best := graph.Inf
			if t.Load(mark, v) == round {
				best = t.Load(dist, v*kk+lane)
			}
			a0 := int32(t.Load(first, v))
			a1 := int32(t.Load(first, v+1))
			for i := a0; i < a1; i++ {
				u := int32(t.Load(heads, i))
				w := t.Load(weights, i)
				du := t.Load(dist, u*kk+lane)
				t.ALU(2) // packed add + min
				if nd := uint64(du) + uint64(w); nd < uint64(best) {
					best = uint32(nd)
				}
			}
			t.Store(dist, v*kk+lane, best)
		})
	}
	e.lastBatchTime = e.dev.Stats().ModeledTime - start
}

// MaxK returns the largest batch size the engine was created for.
func (e *Engine) MaxK() int { return e.maxK }

// NewRunningMax allocates a device buffer holding a per-vertex running
// maximum, initialized to zero — the auxiliary array of the diameter
// application (Section VII-B.a), kept on the device so warp accesses
// stay coalesced.
func (e *Engine) NewRunningMax() (*simt.Buffer, error) {
	return e.dev.Alloc("diameter.max", e.n)
}

// FoldMax folds the labels of the last batch into maxBuf: for every
// vertex the maximum finite label over the batch's lanes is merged into
// the running maximum.
//
//phast:hotpath
func (e *Engine) FoldMax(maxBuf *simt.Buffer) {
	k := int32(e.k)
	if k == 0 {
		return
	}
	dist := e.dist
	e.dev.Launch("diameter.fold", e.n, func(t *simt.Thread) {
		v := t.Global
		m := t.Load(maxBuf, v)
		base := v * k
		for j := int32(0); j < k; j++ {
			d := t.Load(dist, base+j)
			t.ALU(2)
			if d != graph.Inf && d > m {
				m = d
			}
		}
		t.Store(maxBuf, v, m)
	})
}

// Dist returns the label of original-ID vertex v in tree lane of the
// last batch, reading device memory directly (no PCIe metering; use
// CopyDistances to model the transfer). The returned value is a copy
// and stays valid; the underlying device array is rewritten by the
// next Tree/MultiTree batch, which is why no Raw view of it is
// exposed — bulk readers go through CopyDistances.
func (e *Engine) Dist(lane int, v int32) uint32 {
	ev := e.ce.EngineID(v)
	return e.dist.HostData()[int(ev)*e.k+lane]
}

// CopyDistances transfers all labels of one tree back to the host
// (metered as a strided DMA), indexed by engine ID. The copy is a
// snapshot with the same contract as core.Engine.CopyDistances: later
// batches on this engine do not disturb it.
func (e *Engine) CopyDistances(lane int, buf []uint32) {
	if len(buf) != e.n {
		panic("gphast: CopyDistances buffer has wrong length")
	}
	e.dist.CopyOutStrided(lane, e.k, e.n, buf)
}
