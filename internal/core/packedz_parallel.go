package core

import (
	"encoding/binary"

	"phast/internal/graph"
)

// Chunk kernels over the compressed byte stream (Section V over
// graph.PackedZ, scheduled by scheduler.go). A worker enters the stream
// at a chunk boundary through the byte-indexed PackedZ.BlockStarts and
// positions its seed cursor with one binary search per chunk; within
// the chunk the decode-and-relax loop is identical to the sequential
// kernels of packedz.go, including the per-block decode geometry hoist
// into a constant-stride arc loop.

// scanPackedZChunk relaxes sweep positions [lo,hi) of the compressed
// single-tree sweep.
//
//phast:hotpath
func (e *Engine) scanPackedZChunk(lo, hi int32) {
	zk := e.s.packedz
	stream := zk.Stream()
	hasV := zk.ExplicitVertex()
	order := e.s.order
	dist := e.dist
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	i := zk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		hdr := uint32(stream[i])
		i++
		if hdr >= 0x80 {
			hdr, i = uvarintSlow(hdr, stream, i)
		}
		deg := int(hdr >> 4)
		stride, dshift, dmask, wmask := zGeom(hdr)
		v := p
		if hasV {
			zz := uint32(stream[i])
			i++
			if zz >= 0x80 {
				zz, i = uvarintSlow(zz, stream, i)
			}
			v = p + unzig(zz)
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
		for a := 0; a < deg; a++ {
			x := binary.LittleEndian.Uint64(stream[i:])
			i += stride
			d := uint32(x) & dmask
			w := uint32(x>>dshift) & wmask
			h := p - int32(d)
			if hasV {
				h = order[h]
			}
			if nd := graph.AddSat(dist[h], w); nd < best {
				best = nd
			}
		}
		dist[v] = best
	}
}

// scanPackedZParentsChunk is scanPackedZChunk recording G+ parent
// pointers.
//
//phast:hotpath
func (e *Engine) scanPackedZParentsChunk(lo, hi int32) {
	zk := e.s.packedz
	stream := zk.Stream()
	hasV := zk.ExplicitVertex()
	order := e.s.order
	dist := e.dist
	parent := e.parent
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	i := zk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		hdr := uint32(stream[i])
		i++
		if hdr >= 0x80 {
			hdr, i = uvarintSlow(hdr, stream, i)
		}
		deg := int(hdr >> 4)
		stride, dshift, dmask, wmask := zGeom(hdr)
		v := p
		if hasV {
			zz := uint32(stream[i])
			i++
			if zz >= 0x80 {
				zz, i = uvarintSlow(zz, stream, i)
			}
			v = p + unzig(zz)
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
		for a := 0; a < deg; a++ {
			x := binary.LittleEndian.Uint64(stream[i:])
			i += stride
			d := uint32(x) & dmask
			w := uint32(x>>dshift) & wmask
			h := p - int32(d)
			if hasV {
				h = order[h]
			}
			if nd := graph.AddSat(dist[h], w); nd < best {
				best = nd
				bestP = h
			}
		}
		dist[v] = best
		parent[v] = bestP
	}
}

// scanPackedZMultiChunk relaxes all k trees of sweep positions
// [lo,hi) over the compressed stream: each block's arcs are decoded
// once into the staging buffer (decodeZTile) and relaxed by the
// register kernel of multi_relax.go, which the packed engines share.
// The sequential multi-tree sweep is this kernel over [0,n).
//
//phast:hotpath
func (e *Engine) scanPackedZMultiChunk(lo, hi int32, k int) {
	zk := e.s.packedz
	stream := zk.Stream()
	hasV := zk.ExplicitVertex()
	order := e.s.order
	kd := e.kdist
	seeds := e.seedPos
	si := seedLowerBound(seeds, lo)
	next := int32(-1)
	if si < len(seeds) {
		next = seeds[si]
	}
	var st zStage
	i := zk.BlockStarts()[lo]
	for p := lo; p < hi; p++ {
		hdr := uint32(stream[i])
		i++
		if hdr >= 0x80 {
			hdr, i = uvarintSlow(hdr, stream, i)
		}
		deg := int(hdr >> 4)
		v := p
		if hasV {
			zz := uint32(stream[i])
			i++
			if zz >= 0x80 {
				zz, i = uvarintSlow(zz, stream, i)
			}
			v = p + unzig(zz)
		}
		seeded := p == next
		if seeded {
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		}
		// deg == 0 still relaxes one empty tile: its stores are the
		// vertex's Inf initialization.
		for rem := deg; ; {
			tn := min(rem, zTile)
			i = decodeZTile(&st, stream, i, p, hdr, tn)
			arcs := st.arcs[:2*tn]
			if hasV {
				for t := 0; t < len(arcs); t += 2 {
					arcs[t] = uint32(order[arcs[t]])
				}
			}
			relaxVertexK(kd, k, int(v), arcs, seeded)
			rem -= tn
			if rem <= 0 {
				break
			}
			seeded = true // later tiles continue from the stored minima
		}
	}
}
