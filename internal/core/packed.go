package core

import (
	"slices"

	"phast/internal/graph"
)

// This file holds the sweep kernels over the arc-major stream
// (graph.Packed), one per tree family. Each kernel relaxes a chunk
// [lo,hi) of sweep positions, entering the stream at lo through
// Packed.BlockStarts, so the sequential sweep is the kernel over [0,n)
// and the scheduler's workers run it per chunk (Section V).
//
// The single-tree kernels walk the chunk arc by arc. Bit 31 of each
// tail word starts a new position, so the loop advances its position
// counter by that bit and takes the running minimum in the label
// array itself: there is no per-vertex loop whose exit would depend on
// the in-degree. The labels are prefilled with Inf before the upward
// search, which then seeds its search space in place, so the kernel
// needs neither the mark bits nor a seed list. This trades the
// implicit initialization of Section IV-C for one sequential 4n-byte
// pass per tree.
//
// The multi-tree kernel keeps implicit initialization, where skipping
// the k·n prefill pays: it takes each position's arc run as a slice
// through BlockStarts and hands it to the register relax of
// multi_relax.go, with the upward search space as a sorted cursor of
// seeded positions. Relaxations stay 32-bit with saturating adds
// (graph.AddSat compiles to add + cmp + cmov).

// fillInf sets every label of dist to Inf, the single-tree kernels'
// starting state.
//
//phast:hotpath
func fillInf(dist []uint32) {
	for i := range dist {
		dist[i] = graph.Inf
	}
}

// clearMarks resets the marks the upward search set, restoring the
// engine's between-trees invariant (all marks false).
//
//phast:hotpath
func (e *Engine) clearMarks() {
	for _, v := range e.touched {
		e.mark[v] = false
	}
}

// buildSeeds converts e.touched (the upward search space, engine IDs)
// into e.seedPos: the sorted sweep positions whose k labels the upward
// searches seeded in kdist. It also clears the marks the searches set.
//
//phast:hotpath
func (e *Engine) buildSeeds() {
	e.clearMarks()
	e.seedPos = e.seedPos[:0]
	pos := e.s.pos
	if pos == nil {
		e.seedPos = append(e.seedPos, e.touched...)
	} else {
		for _, v := range e.touched {
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

// chunkArcs returns the stream words of sweep positions [lo,hi).
func (e *Engine) chunkArcs(lo, hi int32) []uint32 {
	bs := e.s.packed.BlockStarts()
	return e.s.packed.Stream()[bs[lo]:bs[hi]]
}

// scanPackedChunk relaxes sweep positions [lo,hi) of the single-tree
// sweep over a dist prefilled with Inf and seeded by the upward search.
//
//phast:hotpath
func (e *Engine) scanPackedChunk(lo, hi int32) {
	arcs := e.chunkArcs(lo, hi)
	dist := e.dist
	if order := e.s.order; order != nil {
		p := lo - 1
		for i := 1; i < len(arcs); i += 2 {
			tw := arcs[i-1]
			p += int32(tw >> 31)
			v := order[p]
			dist[v] = min(dist[v], graph.AddSat(dist[tw&graph.TailMask], arcs[i]))
		}
		return
	}
	v := lo - 1
	for i := 1; i < len(arcs); i += 2 {
		tw := arcs[i-1]
		v += int32(tw >> 31)
		dist[v] = min(dist[v], graph.AddSat(dist[tw&graph.TailMask], arcs[i]))
	}
}

// scanPackedParentsChunk is scanPackedChunk recording G+ parents over a
// parent array prefilled with -1. The strict < keeps, among equal
// labels, the upward search's parent or else the first arc in stream
// order.
//
//phast:hotpath
func (e *Engine) scanPackedParentsChunk(lo, hi int32) {
	arcs := e.chunkArcs(lo, hi)
	dist := e.dist
	parent := e.parent
	order := e.s.order
	p := lo - 1
	for i := 1; i < len(arcs); i += 2 {
		tw := arcs[i-1]
		p += int32(tw >> 31)
		v := p
		if order != nil {
			v = order[p]
		}
		t := int32(tw & graph.TailMask)
		if nd := graph.AddSat(dist[t], arcs[i]); nd < dist[v] {
			dist[v] = nd
			parent[v] = t
		}
	}
}

// scanPackedMultiChunk relaxes all k trees of sweep positions [lo,hi):
// each position's run of (tail, weight) word pairs goes straight from
// the stream to the register relax of multi_relax.go. The sequential
// multi-tree sweep is this kernel over [0,n).
//
//phast:hotpath
func (e *Engine) scanPackedMultiChunk(lo, hi int32, k int) {
	pk := e.s.packed
	stream := pk.Stream()
	bs := pk.BlockStarts()
	order := e.s.order
	kd := e.kdist
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	for p := lo; p < hi; p++ {
		v := p
		if order != nil {
			v = order[p]
		}
		seeded := p == next
		if seeded {
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		}
		relaxVertexK(kd, k, int(v), stream[bs[p]:bs[p+1]], seeded)
	}
}
