package core

import (
	"slices"

	"phast/internal/graph"
)

// This file holds the fused single-stream sweep kernels, one per tree
// family. The layout (graph.Packed) interleaves each vertex's arc
// count with its (head, weight) pairs in sweep order, so phase 2 is one
// forward pass over a single []uint32 with no first[]/order[]
// indirection. Each kernel relaxes a chunk [lo,hi) of sweep positions:
// it enters the stream at lo through Packed.BlockStarts and positions
// its seed cursor with one binary search, so the sequential sweep is
// the kernel over [0,n) and the scheduler's workers run it per chunk
// (Section V).
//
// The mark bit of the implicit-initialization scheme (Section IV-C) is
// folded away entirely: instead of branching on a per-vertex byte, the
// upward search's touched set is converted once into a sorted list of
// sweep positions and consumed by a merge cursor — the sweep never
// reads or writes a mark array, which removes one n-byte stream and one
// hard-to-predict branch per vertex. Relaxations stay 32-bit with
// saturating adds (graph.AddSat compiles to add + cmp + cmov).

// buildSeeds converts e.touched (the upward search space, engine IDs)
// into e.seedPos: the sorted sweep positions whose labels are already
// seeded in dist/kdist. It also clears the marks the search set, so the
// engine's between-trees invariant (all marks false) holds without the
// sweep touching the mark array.
//
//phast:hotpath
func (e *Engine) buildSeeds() {
	e.seedPos = e.seedPos[:0]
	pos := e.s.pos
	if pos == nil {
		for _, v := range e.touched {
			e.mark[v] = false
			e.seedPos = append(e.seedPos, v)
		}
	} else {
		for _, v := range e.touched {
			e.mark[v] = false
			e.seedPos = append(e.seedPos, pos[v])
		}
	}
	slices.Sort(e.seedPos)
}

// seedLowerBound returns the first index in seeds holding a position
// >= lo (hand-rolled so the parallel kernels stay closure-free).
//
//phast:hotpath
func seedLowerBound(seeds []int32, lo int32) int {
	i, j := 0, len(seeds)
	for i < j {
		h := int(uint(i+j) >> 1)
		if seeds[h] < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// scanPackedChunk relaxes sweep positions [lo,hi) of the packed
// single-tree sweep.
//
//phast:hotpath
func (e *Engine) scanPackedChunk(lo, hi int32) {
	pk := e.s.packed
	stream := pk.Stream()
	hasV := pk.ExplicitVertex()
	dist := e.dist
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	i := pk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		deg := int(stream[i])
		i++
		v := p
		if hasV {
			v = int32(stream[i])
			i++
		}
		best := graph.Inf
		if p == next {
			best = dist[v]
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		}
		for end := i + 2*deg; i < end; i += 2 {
			nd := graph.AddSat(dist[stream[i]], stream[i+1])
			if nd < best {
				best = nd
			}
		}
		dist[v] = best
	}
}

// scanPackedParentsChunk is scanPackedChunk recording G+ parents.
//
//phast:hotpath
func (e *Engine) scanPackedParentsChunk(lo, hi int32) {
	pk := e.s.packed
	stream := pk.Stream()
	hasV := pk.ExplicitVertex()
	dist := e.dist
	parent := e.parent
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	i := pk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		deg := int(stream[i])
		i++
		v := p
		if hasV {
			v = int32(stream[i])
			i++
		}
		best := graph.Inf
		bestP := int32(-1)
		if p == next {
			best = dist[v]
			bestP = parent[v] // set by the CH search
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		}
		for end := i + 2*deg; i < end; i += 2 {
			h := stream[i]
			nd := graph.AddSat(dist[h], stream[i+1])
			if nd < best {
				best = nd
				bestP = int32(h)
			}
		}
		dist[v] = best
		parent[v] = bestP
	}
}

// scanPackedMultiChunk relaxes all k trees of sweep positions [lo,hi)
// over the fused stream: each vertex's (head, weight) word pairs go
// straight from the stream to the register relax of multi_relax.go.
// The sequential multi-tree sweep is this kernel over [0,n).
//
//phast:hotpath
func (e *Engine) scanPackedMultiChunk(lo, hi int32, k int) {
	pk := e.s.packed
	stream := pk.Stream()
	hasV := pk.ExplicitVertex()
	kd := e.kdist
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	i := pk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		deg := int(stream[i])
		i++
		v := p
		if hasV {
			v = int32(stream[i])
			i++
		}
		seeded := p == next
		if seeded {
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		}
		end := i + 2*deg
		relaxVertexK(kd, k, int(v), stream[i:end], seeded)
		i = end
	}
}
