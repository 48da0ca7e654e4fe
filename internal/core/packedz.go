package core

import (
	"encoding/binary"

	"phast/internal/graph"
)

// This file holds the compressed-stream sweep kernels: the packed
// kernel families of packed.go ported to the byte layout of
// graph.PackedZ. The sweep is bandwidth-bound, so the kernels trade a
// few decode instructions per arc for reading roughly half the bytes:
// arc heads arrive as position deltas (one byte for the common
// near-local arc after the level-DFS reorder) and weights in the
// per-block width the header's tag announces.
//
// Both field widths are constant across a block, so each kernel hoists
// the decode geometry out of the arc loop: the header's two tags fix a
// stride, a delta shift and two masks, and every arc then decodes from
// a single 8-byte load — delta in the low bytes, weight in the next —
// with no data-dependent branches and a loop-carried offset that is a
// plain add. That is the same dependence structure as the uncompressed
// packed kernels, which is what lets these loops approach their
// throughput while streaming half the bytes. (An earlier varint arc
// encoding was measurably slower: the per-arc length branch
// mispredicted on mixed-width blocks and serialized the offset chain.)
// Narrow weights are verbatim: the encoder promotes any block holding
// an unreachable (Inf) weight to the 4-byte width, where Inf is the
// all-ones word, so the decoders never special-case it. The identity-
// order single-tree kernel goes further and specializes the four
// narrow tag pairs with constant-shift pair decode (two arcs per wide
// load); see scanPackedZIdentChunk.
// Headers and vertex words stay varint and keep their one-byte fast
// path inline, falling into uvarintSlow only on the cold multi-byte
// tail. Everything else (chunk entry through the byte-indexed
// PackedZ.BlockStarts, seed merge cursor, implicit initialization,
// saturating relax) is identical to the packed kernels.

// uvarintSlow finishes decoding a varint whose first byte (already
// consumed, continuation bit set) is `first`, returning the value and
// the offset past it. Split from the call sites so the hot scan loops
// keep the one-byte fast path inline; this helper runs on the cold
// multi-byte tail only.
//
//phast:hotpath
func uvarintSlow(first uint32, s []byte, i int) (uint32, int) {
	x := first & 0x7f
	shift := uint(7)
	for {
		b := s[i]
		i++
		x |= uint32(b&0x7f) << shift
		if b < 0x80 {
			return x, i
		}
		shift += 7
	}
}

// unzig undoes the zigzag fold of the stream's vertex words.
//
//phast:hotpath
func unzig(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// zGeom expands a block header's width tags into the arc-loop decode
// geometry: the byte stride of one arc, the bit offset of the weight
// inside the 8-byte load, and the extraction masks. wmask doubles as
// the Inf escape pattern (Go shifts by >= 32 yield 0, so the 4-byte
// tags produce the correct all-ones mask).
//
//phast:hotpath
func zGeom(hdr uint32) (stride int, dshift, dmask, wmask uint32) {
	dtag := hdr >> 2 & 3
	wtag := hdr & 3
	stride = int(1<<dtag + 1<<wtag)
	dshift = 8 << dtag
	dmask = uint32(1)<<dshift - 1
	wmask = uint32(1)<<(8<<wtag) - 1
	return
}

// scanPackedZIdentChunk relaxes sweep positions [lo,hi) of the
// compressed single-tree sweep over an identity-order stream, the shape
// SweepReordered always runs (the graph is physically relabeled, so no
// vertex words and no order indirection). It exists because the
// generic kernel pays three taxes this hot loop cannot afford:
// variable-shift guards (the geometry masks are loop-variant), per-arc
// wide-load bounds checks, and register spills from the order state.
// Here the two width shapes that cover essentially every arc of a
// reordered road hierarchy — 1-byte delta with 1- or 2-byte weight —
// get constant-geometry loops that decode two arcs per 8-byte load
// with immediate shifts; everything else falls through to the generic
// geometry loop.
//
//phast:hotpath
func (e *Engine) scanPackedZIdentChunk(lo, hi int32) {
	zk := e.s.packedz
	stream := zk.Stream()
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
		best := graph.Inf
		if p == next {
			best = dist[p]
			si++
			next = -1
			if si < len(seeds) {
				next = seeds[si]
			}
		}
		switch hdr & 0xF {
		case graph.WTag16<<2 | graph.WTag16: // 2-byte delta, 2-byte weight
			a := 0
			for ; a+2 <= deg; a += 2 {
				x := binary.LittleEndian.Uint64(stream[i:])
				i += 8
				h0 := p - int32(x&0xFFFF)
				w0 := uint32(x>>16) & 0xFFFF
				h1 := p - int32(x>>32&0xFFFF)
				w1 := uint32(x >> 48)
				nd0 := graph.AddSat(dist[h0], w0)
				nd1 := graph.AddSat(dist[h1], w1)
				if nd0 < best {
					best = nd0
				}
				if nd1 < best {
					best = nd1
				}
			}
			// Branchless odd-arc tail: degree parity is data-dependent
			// and a conditional tail mispredicts on half the blocks.
			// Decode unconditionally (the load lands in the next block
			// or the stream pad), mask a garbage delta to 0 so the head
			// is p's own label — never one another chunk may be writing
			// — and mask the weight to Inf: relaxing with Inf is a no-op.
			m := uint32(int32(a-deg) >> 31) // all-ones iff a tail arc exists
			x := binary.LittleEndian.Uint32(stream[i:])
			i += int(m & 4)
			h := p - int32(x&0xFFFF&m)
			if nd := graph.AddSat(dist[h], x>>16|^m); nd < best {
				best = nd
			}
		case graph.WTag16<<2 | graph.WTag8: // 2-byte delta, 1-byte weight
			a := 0
			for ; a+2 <= deg; a += 2 {
				x := binary.LittleEndian.Uint64(stream[i:])
				i += 6
				h0 := p - int32(x&0xFFFF)
				w0 := uint32(x>>16) & 0xFF
				h1 := p - int32(x>>24&0xFFFF)
				w1 := uint32(x>>40) & 0xFF
				nd0 := graph.AddSat(dist[h0], w0)
				nd1 := graph.AddSat(dist[h1], w1)
				if nd0 < best {
					best = nd0
				}
				if nd1 < best {
					best = nd1
				}
			}
			m := uint32(int32(a-deg) >> 31)
			x := binary.LittleEndian.Uint32(stream[i:])
			i += int(m & 3)
			h := p - int32(x&0xFFFF&m)
			if nd := graph.AddSat(dist[h], x>>16&0xFF|^m); nd < best {
				best = nd
			}
		case graph.WTag8<<2 | graph.WTag16: // 1-byte delta, 2-byte weight
			a := 0
			for ; a+2 <= deg; a += 2 {
				x := binary.LittleEndian.Uint64(stream[i:])
				i += 6
				h0 := p - int32(x&0xFF)
				w0 := uint32(x>>8) & 0xFFFF
				h1 := p - int32(x>>24&0xFF)
				w1 := uint32(x>>32) & 0xFFFF
				nd0 := graph.AddSat(dist[h0], w0)
				nd1 := graph.AddSat(dist[h1], w1)
				if nd0 < best {
					best = nd0
				}
				if nd1 < best {
					best = nd1
				}
			}
			m := uint32(int32(a-deg) >> 31)
			x := binary.LittleEndian.Uint32(stream[i:])
			i += int(m & 3)
			h := p - int32(x&0xFF&m)
			if nd := graph.AddSat(dist[h], x>>8&0xFFFF|^m); nd < best {
				best = nd
			}
		case graph.WTag8<<2 | graph.WTag8: // 1-byte delta, 1-byte weight
			a := 0
			for ; a+2 <= deg; a += 2 {
				x := binary.LittleEndian.Uint32(stream[i:])
				i += 4
				h0 := p - int32(x&0xFF)
				w0 := x >> 8 & 0xFF
				h1 := p - int32(x>>16&0xFF)
				w1 := x >> 24
				nd0 := graph.AddSat(dist[h0], w0)
				nd1 := graph.AddSat(dist[h1], w1)
				if nd0 < best {
					best = nd0
				}
				if nd1 < best {
					best = nd1
				}
			}
			m := uint32(int32(a-deg) >> 31)
			x := uint32(binary.LittleEndian.Uint16(stream[i:]))
			i += int(m & 2)
			h := p - int32(x&0xFF&m)
			if nd := graph.AddSat(dist[h], x>>8|^m); nd < best {
				best = nd
			}
		default:
			stride, dshift, dmask, wmask := zGeom(hdr)
			for a := 0; a < deg; a++ {
				x := binary.LittleEndian.Uint64(stream[i:])
				i += stride
				d := uint32(x) & dmask
				w := uint32(x>>dshift) & wmask
				h := p - int32(d)
				if nd := graph.AddSat(dist[h], w); nd < best {
					best = nd
				}
			}
		}
		dist[p] = best
	}
}

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
