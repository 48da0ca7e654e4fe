package graph

import (
	"fmt"
	"math"
)

// Packed is the arc-major sweep stream: the incoming arcs of a
// (downward, incoming-arc) graph flattened into one []uint32 of word
// pairs in sweep order, so phase 2 of PHAST reads one sequential array
// arc by arc instead of first + arclist (+ order).
//
// Stream grammar, one block per sweep position p = 0..n-1, each block
// one or more (tail, weight) word pairs:
//
//	[tail | FirstArc] [weight]   the first incoming arc of the position
//	[tail] [weight]              its further arcs, in adjacency order
//
// Bit 31 of a tail word (FirstArc) is set on exactly the first arc of
// every block: a kernel walking the stream arc by arc advances its
// position counter by that bit, so nothing in the loop depends on a
// vertex's degree. A position with in-degree 0 gets one dummy arc from
// its own vertex weighing Inf, which relaxes nothing (in the reordered
// layout the top vertex's dummy is (0, Inf)). Blocks carry no degree
// word and no vertex word: the position-to-vertex map is the sweep
// order the engine keeps (the identity in the reordered layout of
// Section IV-A). Tails are plain vertex IDs (below 2^31), so the label
// array is indexed directly. BlockStarts indexes the blocks by word
// offset for kernels that take a position's arc run as a slice.
type Packed struct {
	stream     []uint32
	blockStart []int32 // len n+1: word offset of each position's block
	n, m       int     // m counts real arcs, not the dummies
}

const (
	// FirstArc marks the tail word of the first arc of a block.
	FirstArc uint32 = 1 << 31
	// TailMask extracts the tail vertex ID from a tail word.
	TailMask = FirstArc - 1
)

// NewPacked lays g's incoming arcs out as an arc-major stream scanned
// in the given sweep order (order[p] = vertex visited at position p; nil
// means the identity scan 0..n-1). order, when non-nil, must be a
// permutation of [0,n). g must have no self-loop: the dummy arc of an
// in-degree-0 position is the stream's only arc from a vertex to itself.
func NewPacked(g *Graph, order []int32) (*Packed, error) {
	n := g.NumVertices()
	m := g.NumArcs()
	if err := checkOrder(order, n); err != nil {
		return nil, err
	}
	words := 2 * m
	for v := int32(0); int(v) < n; v++ {
		if g.OutDegree(v) == 0 {
			words += 2
		}
	}
	if words > math.MaxInt32 {
		return nil, fmt.Errorf("graph: packed stream of %d words exceeds the int32 block index", words)
	}
	stream := make([]uint32, words)
	blockStart := make([]int32, n+1)
	i := 0
	for p := 0; p < n; p++ {
		blockStart[p] = int32(i)
		v := vertexAt(order, p)
		arcs := g.Arcs(v)
		if len(arcs) == 0 {
			stream[i], stream[i+1] = uint32(v)|FirstArc, Inf
			i += 2
			continue
		}
		first := FirstArc
		for _, a := range arcs {
			if a.Head == v {
				return nil, fmt.Errorf("graph: packed stream cannot carry the self-loop at vertex %d", v)
			}
			stream[i], stream[i+1] = uint32(a.Head)|first, a.Weight
			first = 0
			i += 2
		}
	}
	blockStart[n] = int32(i)
	return &Packed{stream: stream, blockStart: blockStart, n: n, m: m}, nil
}

// checkOrder accepts nil (the identity) or a permutation of [0,n).
func checkOrder(order []int32, n int) error {
	if order == nil {
		return nil
	}
	if len(order) != n {
		return fmt.Errorf("graph: packed order has length %d, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for p, v := range order {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("graph: packed order is not a permutation at position %d", p)
		}
		seen[v] = true
	}
	return nil
}

// vertexAt is the vertex scanned at sweep position p (nil order: p).
func vertexAt(order []int32, p int) int32 {
	if order == nil {
		return int32(p)
	}
	return order[p]
}

// WithWeights returns a packed stream with p's exact structure — block
// index, first-arc bits and tails — but the arc weights taken from g,
// which must have the same adjacency structure as the graph p was built
// from in the same sweep order. This is the cheap half of a metric
// swap: the stream interleaves structure and weights, so a new metric
// needs the weight words patched but nothing re-derived. The block
// index is shared with p (it is immutable); only the word stream is
// copied.
func (p *Packed) WithWeights(g *Graph, order []int32) (*Packed, error) {
	if g.NumVertices() != p.n || g.NumArcs() != p.m {
		return nil, fmt.Errorf("graph: packed patch dims %d/%d, graph %d/%d", p.n, p.m, g.NumVertices(), g.NumArcs())
	}
	if order != nil && len(order) != p.n {
		return nil, fmt.Errorf("graph: packed patch order has length %d, want %d", len(order), p.n)
	}
	stream := make([]uint32, len(p.stream))
	copy(stream, p.stream)
	for pos := 0; pos < p.n; pos++ {
		v := vertexAt(order, pos)
		block := stream[p.blockStart[pos]:p.blockStart[pos+1]]
		arcs := g.Arcs(v)
		if len(arcs) == 0 {
			if len(block) != 2 || block[0]&TailMask != uint32(v) {
				return nil, fmt.Errorf("graph: packed patch expects the dummy arc of vertex %d", v)
			}
			continue
		}
		if len(block) != 2*len(arcs) {
			return nil, fmt.Errorf("graph: packed patch degree mismatch at vertex %d: stream %d, graph %d", v, len(block)/2, len(arcs))
		}
		for j, a := range arcs {
			if block[2*j]&TailMask != uint32(a.Head) {
				return nil, fmt.Errorf("graph: packed patch tail mismatch at vertex %d: stream %d, graph %d", v, block[2*j]&TailMask, a.Head)
			}
			block[2*j+1] = a.Weight
		}
	}
	return &Packed{stream: stream, blockStart: p.blockStart, n: p.n, m: p.m}, nil
}

// Stream exposes the word stream. Callers must not modify it; in a
// snapshot-restored engine it aliases the mapped file.
//
//phast:readonly
func (p *Packed) Stream() []uint32 { return p.stream }

// BlockStarts exposes the word offset of every sweep position's block
// (length n+1, ending at Words). Kernels use it to enter the stream at
// a chunk boundary, and the multi-tree kernel to slice out each
// position's arc run. Callers must not modify it; in a
// snapshot-restored engine it aliases the mapped file.
//
//phast:readonly
func (p *Packed) BlockStarts() []int32 { return p.blockStart }

// NumVertices returns n.
func (p *Packed) NumVertices() int { return p.n }

// NumArcs returns m, the real arcs (dummy arcs excluded).
func (p *Packed) NumArcs() int { return p.m }

// Words returns the stream length in uint32 words.
func (p *Packed) Words() int { return len(p.stream) }

// MemoryBytes reports the footprint of the stream and block index.
func (p *Packed) MemoryBytes() int64 {
	return int64(len(p.stream))*4 + int64(len(p.blockStart))*4
}

// Unpack decodes the stream, scanned in the given sweep order (nil for
// the identity), back into a CSR graph. It validates the grammar first
// and is the round-trip half of the phastdebug packed invariant.
func (p *Packed) Unpack(order []int32) (*Graph, error) {
	if err := checkStream(p.stream, p.blockStart, order, p.n, p.m); err != nil {
		return nil, err
	}
	first := make([]int32, p.n+1)
	for pos := 0; pos < p.n; pos++ {
		v := vertexAt(order, pos)
		first[v+1] = int32(p.blockArcs(pos, v))
	}
	for v := 0; v < p.n; v++ {
		first[v+1] += first[v]
	}
	arcs := make([]Arc, p.m)
	for pos := 0; pos < p.n; pos++ {
		v := vertexAt(order, pos)
		dst := arcs[first[v]:first[v+1]]
		block := p.stream[p.blockStart[pos]:p.blockStart[pos+1]]
		for j := range dst {
			dst[j] = Arc{Head: int32(block[2*j] & TailMask), Weight: block[2*j+1]}
		}
	}
	return FromRaw(first, arcs)
}

// blockArcs is the number of real arcs in the block of position pos,
// which scans vertex v: 0 for a dummy block.
func (p *Packed) blockArcs(pos int, v int32) int {
	lo, hi := p.blockStart[pos], p.blockStart[pos+1]
	if hi-lo == 2 && p.stream[lo]&TailMask == uint32(v) {
		return 0
	}
	return int(hi-lo) / 2
}

// checkStream walks the grammar in full: the block index tiles the
// stream from 0 with non-empty, even-length blocks; bit 31 is set on
// exactly the first tail word of every block (so every BlockStarts
// entry agrees with the bits); masked tails are vertices; a tail equal
// to its position's vertex appears only as a dummy block (one arc,
// weight Inf); the real arcs number m; and order, when non-nil, is a
// permutation of [0,n).
func checkStream(stream []uint32, blockStart []int32, order []int32, n, m int) error {
	if n < 0 || m < 0 {
		return fmt.Errorf("graph: packed stream has negative dims %d/%d", n, m)
	}
	if len(blockStart) != n+1 {
		return fmt.Errorf("graph: packed block index has %d entries, want %d", len(blockStart), n+1)
	}
	if err := checkOrder(order, n); err != nil {
		return err
	}
	if blockStart[0] != 0 {
		return fmt.Errorf("graph: packed block index starts at %d, want 0", blockStart[0])
	}
	if int(blockStart[n]) != len(stream) {
		return fmt.Errorf("graph: packed block index ends at %d, stream has %d words", blockStart[n], len(stream))
	}
	arcs := 0
	for p := 0; p < n; p++ {
		lo, hi := int(blockStart[p]), int(blockStart[p+1])
		if hi <= lo || (hi-lo)%2 != 0 || hi > len(stream) {
			return fmt.Errorf("graph: packed block %d spans words [%d,%d): empty, odd or past the stream", p, lo, hi)
		}
		v := uint32(vertexAt(order, p))
		for i := lo; i < hi; i += 2 {
			tw := stream[i]
			if i == lo && tw&FirstArc == 0 {
				return fmt.Errorf("graph: packed block %d starts at word %d without the first-arc bit", p, i)
			}
			if i > lo && tw&FirstArc != 0 {
				return fmt.Errorf("graph: packed word %d inside block %d carries the first-arc bit", i, p)
			}
			t := tw & TailMask
			if int(t) >= n {
				return fmt.Errorf("graph: packed tail %d out of range at position %d", t, p)
			}
			if t == v {
				if hi-lo != 2 || stream[i+1] != Inf {
					return fmt.Errorf("graph: packed block %d has a self-loop that is not a lone Inf dummy", p)
				}
				continue
			}
			arcs++
		}
	}
	if arcs != m {
		return fmt.Errorf("graph: packed stream holds %d arcs, want %d", arcs, m)
	}
	return nil
}
