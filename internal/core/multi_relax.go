package core

import (
	"encoding/binary"

	"phast/internal/graph"
)

// The multi-tree relax shared by the packed and compressed engines
// (Section IV-B). Labels are vertex-major — the k labels of engine
// vertex v sit at kdist[v*k : v*k+k] — so one arc's k tail labels are
// one contiguous run, the paper's "k labels in one SSE register". The
// multi kernels of packed.go and packedz.go walk their stream, present
// each vertex's incoming arcs as (tail, weight) pairs, and hand them to
// relaxVertexK:
//
//  1. Lanes go in groups of four, then a group of two and a single
//     lane as k requires. Each lane of a group accumulates its minimum
//     in a local variable, so per (vertex, lane) there is exactly one
//     label store, and that store is also the implicit Inf
//     initialization of an unseeded vertex (Section IV-C).
//  2. The tail labels of a group are read from kdist[h*k+j : +4]: four
//     adjacent words, one cache line for any k up to 16.
//
// Keeping the relax target in locals is what the earlier
// memory-resident kernels could not do: their target and tail labels
// lived in the same array, so every arc re-loaded, compared and
// conditionally stored all k target labels.
//
// The packed stream already lays arcs out as (head, weight) word
// pairs, so its kernel passes a slice of the stream itself. The
// compressed stream decodes each block once into a zStage of the same
// pair shape (decodeZTile); a block deeper than the stage is relaxed
// in zTile-arc tiles, the later ones seeded from the stored minima.

// relaxVertexK relaxes the k labels of engine vertex vi over arcs, a
// run of (tail engine ID, weight) pairs, and stores the k minima.
// seeded selects the starting value: the vertex's current labels (set
// by the upward searches, or by an earlier tile) or Inf.
//
//phast:hotpath
func relaxVertexK(kd []uint32, k, vi int, arcs []uint32, seeded bool) {
	base := vi * k
	dst := kd[base : base+k : base+k]
	j := 0
	for ; j+4 <= k; j += 4 {
		b0, b1, b2, b3 := graph.Inf, graph.Inf, graph.Inf, graph.Inf
		if seeded {
			b0, b1, b2, b3 = dst[j], dst[j+1], dst[j+2], dst[j+3]
		}
		for t := 0; t+1 < len(arcs); t += 2 {
			u := int(arcs[t])*k + j
			w := arcs[t+1]
			tl := kd[u : u+4 : u+4]
			if nd := graph.AddSat(tl[0], w); nd < b0 {
				b0 = nd
			}
			if nd := graph.AddSat(tl[1], w); nd < b1 {
				b1 = nd
			}
			if nd := graph.AddSat(tl[2], w); nd < b2 {
				b2 = nd
			}
			if nd := graph.AddSat(tl[3], w); nd < b3 {
				b3 = nd
			}
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = b0, b1, b2, b3
	}
	if j+2 <= k {
		b0, b1 := graph.Inf, graph.Inf
		if seeded {
			b0, b1 = dst[j], dst[j+1]
		}
		for t := 0; t+1 < len(arcs); t += 2 {
			u := int(arcs[t])*k + j
			w := arcs[t+1]
			tl := kd[u : u+2 : u+2]
			if nd := graph.AddSat(tl[0], w); nd < b0 {
				b0 = nd
			}
			if nd := graph.AddSat(tl[1], w); nd < b1 {
				b1 = nd
			}
		}
		dst[j], dst[j+1] = b0, b1
		j += 2
	}
	if j < k {
		b0 := graph.Inf
		if seeded {
			b0 = dst[j]
		}
		for t := 0; t+1 < len(arcs); t += 2 {
			if nd := graph.AddSat(kd[int(arcs[t])*k+j], arcs[t+1]); nd < b0 {
				b0 = nd
			}
		}
		dst[j] = b0
	}
}

// zTile is the arc capacity of the staging buffer: one uvarint-free
// header (deg <= 7) always fits, and the rare deeper block is decoded
// in zTile-arc tiles. The +1 pair absorbs the unconditional tail-arc
// write of the branchless odd-arc decode (it is never read when the
// tile's arc count is even).
const zTile = 64

// zStage is the per-block staging buffer of the compressed multi-tree
// kernel: up to zTile arcs as (tail, weight) pairs, the packed stream's
// arc shape, decoded once and read by every lane group. Tails are sweep
// positions until the kernel remaps them to engine IDs under an
// explicit-vertex order. It lives on the kernel's stack.
type zStage struct {
	arcs [2 * (zTile + 1)]uint32
}

// decodeZTile decodes the next tn arcs of the block at sweep position p
// into st, starting at stream offset i, and returns the offset past
// them. tn must be min(remaining arcs, zTile). The four narrow header
// shapes get constant-shift pair decode (two arcs per wide load,
// exactly scanPackedZIdentChunk's specialization, writing to the staging
// buffer instead of relaxing); everything else falls to the generic
// geometry loop. An odd tn decodes its last arc branchlessly: the wide
// load is unconditional (licensed mid-stream by the following block's
// bytes and at the end by the stream pad), and only the offset advance
// is masked; with an even tn the write lands in the never-read spare
// pair.
//
//phast:hotpath
func decodeZTile(st *zStage, stream []byte, i int, p int32, hdr uint32, tn int) int {
	s := &st.arcs
	switch hdr & 0xF {
	case graph.WTag16<<2 | graph.WTag16: // 2-byte delta, 2-byte weight
		a := 0
		for ; a+2 <= tn; a += 2 {
			x := binary.LittleEndian.Uint64(stream[i:])
			i += 8
			s[2*a] = uint32(p - int32(x&0xFFFF))
			s[2*a+1] = uint32(x>>16) & 0xFFFF
			s[2*a+2] = uint32(p - int32(x>>32&0xFFFF))
			s[2*a+3] = uint32(x >> 48)
		}
		m := uint32(int32(a-tn) >> 31) // all-ones iff a tail arc exists
		x := binary.LittleEndian.Uint32(stream[i:])
		i += int(m & 4)
		s[2*a] = uint32(p - int32(x&0xFFFF))
		s[2*a+1] = x >> 16
	case graph.WTag16<<2 | graph.WTag8: // 2-byte delta, 1-byte weight
		a := 0
		for ; a+2 <= tn; a += 2 {
			x := binary.LittleEndian.Uint64(stream[i:])
			i += 6
			s[2*a] = uint32(p - int32(x&0xFFFF))
			s[2*a+1] = uint32(x>>16) & 0xFF
			s[2*a+2] = uint32(p - int32(x>>24&0xFFFF))
			s[2*a+3] = uint32(x>>40) & 0xFF
		}
		m := uint32(int32(a-tn) >> 31)
		x := binary.LittleEndian.Uint32(stream[i:])
		i += int(m & 3)
		s[2*a] = uint32(p - int32(x&0xFFFF))
		s[2*a+1] = x >> 16 & 0xFF
	case graph.WTag8<<2 | graph.WTag16: // 1-byte delta, 2-byte weight
		a := 0
		for ; a+2 <= tn; a += 2 {
			x := binary.LittleEndian.Uint64(stream[i:])
			i += 6
			s[2*a] = uint32(p - int32(x&0xFF))
			s[2*a+1] = uint32(x>>8) & 0xFFFF
			s[2*a+2] = uint32(p - int32(x>>24&0xFF))
			s[2*a+3] = uint32(x>>32) & 0xFFFF
		}
		m := uint32(int32(a-tn) >> 31)
		x := binary.LittleEndian.Uint32(stream[i:])
		i += int(m & 3)
		s[2*a] = uint32(p - int32(x&0xFF))
		s[2*a+1] = x >> 8 & 0xFFFF
	case graph.WTag8<<2 | graph.WTag8: // 1-byte delta, 1-byte weight
		a := 0
		for ; a+2 <= tn; a += 2 {
			x := binary.LittleEndian.Uint32(stream[i:])
			i += 4
			s[2*a] = uint32(p - int32(x&0xFF))
			s[2*a+1] = x >> 8 & 0xFF
			s[2*a+2] = uint32(p - int32(x>>16&0xFF))
			s[2*a+3] = x >> 24
		}
		m := uint32(int32(a-tn) >> 31)
		x := uint32(binary.LittleEndian.Uint16(stream[i:]))
		i += int(m & 2)
		s[2*a] = uint32(p - int32(x&0xFF))
		s[2*a+1] = x >> 8
	default:
		stride, dshift, dmask, wmask := zGeom(hdr)
		for a := 0; a < tn; a++ {
			x := binary.LittleEndian.Uint64(stream[i:])
			i += stride
			s[2*a] = uint32(p - int32(uint32(x)&dmask))
			s[2*a+1] = uint32(x>>dshift) & wmask
		}
	}
	return i
}
