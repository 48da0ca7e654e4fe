package core

import "phast/internal/graph"

// Chunk kernels over the fused single-stream layout (Section V over the
// packed stream, scheduled by scheduler.go). A worker enters the stream
// at a chunk boundary through Packed.BlockStarts and positions its own
// seed cursor with one binary search per chunk; within the chunk the
// scan is identical to the sequential packed kernels of packed.go.

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
