package graph

import "fmt"

// This file computes the per-chunk dependency bounds the persistent
// sweep scheduler relaxes the Section V level barrier with. The sweep
// order is a reverse topological order of the downward graph (every arc
// read at position p has its tail at some earlier position), so any
// chunk of positions [a,b) may start as soon as every position < a
// that the chunk reads is final. The bound precomputed here is exactly
// that horizon: the maximum sweep position among tails of arcs
// entering the chunk from before its start. Dependencies within
// the chunk need no bound — the in-order scan of the chunk satisfies
// them, as in the sequential sweep.
//
// The bounds are computed over the packed stream the scheduler's
// workers read. The package's tests keep CSR flavors of the same
// computation as brute-force oracles.

// UniformChunkStarts returns the chunk boundary list (len numChunks+1,
// first 0, last n) for fixed-size chunks of grain positions — the
// variable-boundary representation of the classic fixed grain, so the
// scheduler speaks one boundary format regardless of how chunks were
// sized.
func UniformChunkStarts(n, grain int) []int32 {
	if grain < 1 {
		grain = 1
	}
	numChunks := (n + grain - 1) / grain
	if numChunks == 0 {
		numChunks = 1
	}
	starts := make([]int32, numChunks+1)
	for c := 1; c < numChunks; c++ {
		starts[c] = int32(c * grain)
	}
	starts[numChunks] = int32(n)
	return starts
}

// ChunkStartsByBytes partitions the sweep positions into chunks whose
// packed stream spans at most budget bytes each (always at least one
// position per chunk, so a block larger than the budget gets a chunk
// of its own). The boundaries are sweep positions — the unit the
// scheduler's dependency bounds and in-order claims speak — sized by
// bytes, which is what a cache-conscious grain wants: a chunk's stream
// plus its label working set resident while it is scanned.
func (p *Packed) ChunkStartsByBytes(budget int) []int32 {
	// Convert the word offsets to bytes without materializing a copy:
	// chunkStartsByOffsets only compares differences, so scale the
	// budget down instead.
	if budget < 4 {
		budget = 4
	}
	return chunkStartsByOffsets(p.blockStart, budget/4)
}

// chunkStartsByOffsets greedily cuts [0,n) into chunks of at most
// budget offset units, returning the boundary list of sweep positions
// (first entry 0, last entry n).
func chunkStartsByOffsets(blockStart []int32, budget int) []int32 {
	n := len(blockStart) - 1
	if budget < 1 {
		budget = 1
	}
	starts := []int32{0}
	base := 0
	for p := 0; p < n; p++ {
		if p > int(starts[len(starts)-1]) && int(blockStart[p+1])-base > budget {
			starts = append(starts, int32(p))
			base = int(blockStart[p])
		}
	}
	return append(starts, int32(n))
}

// ChunkDepBoundsAt walks the packed stream and returns, for each chunk
// of the boundary list starts (sweep positions, len numChunks+1,
// starts[0]=0, strictly ascending, ending at n), the maximum sweep
// position among tails of arcs entering the chunk from before its
// start, or -1 when the chunk depends on no earlier position. pos maps
// a vertex ID to its sweep position for a stream laid out in an
// explicit sweep order; nil means the identity layout, where a tail's
// ID is its position. A dummy arc reads its own position and is no
// dependency.
//
// A tail position after the scanning position would contradict the
// reverse-topological property of the sweep order; that is reported as
// an error rather than silently folded into a bound.
func (p *Packed) ChunkDepBoundsAt(pos []int32, starts []int32) ([]int32, error) {
	if err := ValidChunkStarts(starts, p.n); err != nil {
		return nil, err
	}
	if pos != nil && len(pos) != p.n {
		return nil, fmt.Errorf("graph: chunk position map has length %d, want %d", len(pos), p.n)
	}
	dep := make([]int32, len(starts)-1)
	for c := range dep {
		dep[c] = -1
	}
	c := 0
	sp := int32(-1) // the sweep position of the block being walked
	stream := p.stream
	for i := 0; i+1 < len(stream); i += 2 {
		tw := stream[i]
		if tw&FirstArc != 0 {
			sp++
			for sp >= starts[c+1] {
				c++
			}
		}
		tp := int32(tw & TailMask)
		if pos != nil {
			tp = pos[tp]
		}
		if tp == sp {
			continue
		}
		if tp > sp {
			return nil, fmt.Errorf("graph: packed stream is not topological: position %d reads tail at position %d", sp, tp)
		}
		if tp < starts[c] && tp > dep[c] {
			dep[c] = tp
		}
	}
	return dep, nil
}

// ValidChunkStarts checks the shape of a chunk boundary list: at least
// one chunk, starting at 0, strictly increasing, ending at n. Readers
// that restore chunk geometry from storage check it before use.
func ValidChunkStarts(starts []int32, n int) error {
	if len(starts) < 2 || starts[0] != 0 || starts[len(starts)-1] != int32(n) {
		return fmt.Errorf("graph: chunk starts must span [0,%d], got %d boundaries", n, len(starts))
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			return fmt.Errorf("graph: chunk starts not strictly increasing at %d", i)
		}
	}
	return nil
}
