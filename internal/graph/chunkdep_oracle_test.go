package graph

import "fmt"

// The CSR flavors of the chunk computations in chunkdep.go. No engine
// calls them; they walk the adjacency arrays instead of the packed
// stream, which makes them independent oracles for the stream flavors.

// ChunkDepBounds partitions the sweep positions of g (an incoming-arc
// downward graph: Arcs(v) lists the arcs relaxed when v is scanned,
// with Head naming the dependency tail) into chunks of grain positions
// and returns, for each chunk c covering [c*grain, min((c+1)*grain, n)),
// the maximum sweep position among tails of its incoming arcs that lie
// before the chunk start, or -1 when the chunk depends on no earlier
// position. order is the sweep order (order[p] = vertex scanned at
// position p); nil means the identity scan.
//
// A tail position at or after the scanning position would contradict
// the reverse-topological property of the sweep order; that is reported
// as an error rather than silently folded into a bound.
func ChunkDepBounds(g *Graph, order []int32, grain int) ([]int32, error) {
	n := g.NumVertices()
	if grain <= 0 {
		return nil, fmt.Errorf("graph: chunk grain %d is not positive", grain)
	}
	if order != nil && len(order) != n {
		return nil, fmt.Errorf("graph: chunk order has length %d, want %d", len(order), n)
	}
	var pos []int32 // vertex -> sweep position; nil = identity
	if order != nil {
		pos = make([]int32, n)
		for p, v := range order {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: chunk order has vertex %d at position %d, want [0,%d)", v, p, n)
			}
			pos[v] = int32(p)
		}
	}
	numChunks := (n + grain - 1) / grain
	dep := make([]int32, numChunks)
	for c := range dep {
		dep[c] = -1
	}
	for p := 0; p < n; p++ {
		v := int32(p)
		if order != nil {
			v = order[p]
		}
		c := p / grain
		start := int32(c * grain)
		for _, a := range g.Arcs(v) {
			tp := a.Head
			if pos != nil {
				tp = pos[a.Head]
			}
			if int(tp) >= p {
				return nil, fmt.Errorf("graph: sweep order is not topological: position %d reads tail at position %d", p, tp)
			}
			if tp < start && tp > dep[c] {
				dep[c] = tp
			}
		}
	}
	return dep, nil
}

// ChunkStartsByBytes partitions the sweep positions of a CSR downward
// graph into chunks whose scanned footprint is at most budget bytes,
// estimating each position's traffic as one first[] word plus its
// 8-byte arcs (internal/bandwidth's CSR model). order is the sweep order (nil = identity); at least one
// position lands in every chunk.
func ChunkStartsByBytes(g *Graph, order []int32, budget int) []int32 {
	n := g.NumVertices()
	offsets := make([]int32, n+1)
	for p := 0; p < n; p++ {
		v := int32(p)
		if order != nil {
			v = order[p]
		}
		offsets[p+1] = offsets[p] + 4 + 8*int32(len(g.Arcs(v)))
	}
	return chunkStartsByOffsets(offsets, budget)
}

// ChunkDepBoundsAt is the variable-boundary flavor of ChunkDepBounds:
// starts lists the chunk boundaries as sweep positions (len
// numChunks+1, starts[0]=0, strictly ascending, ending at n), and the
// result holds, per chunk, the maximum sweep position among tails of
// arcs entering the chunk from before its start (-1: none).
func ChunkDepBoundsAt(g *Graph, order []int32, starts []int32) ([]int32, error) {
	n := g.NumVertices()
	if err := ValidChunkStarts(starts, n); err != nil {
		return nil, err
	}
	if order != nil && len(order) != n {
		return nil, fmt.Errorf("graph: chunk order has length %d, want %d", len(order), n)
	}
	var pos []int32
	if order != nil {
		pos = make([]int32, n)
		for p, v := range order {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: chunk order has vertex %d at position %d, want [0,%d)", v, p, n)
			}
			pos[v] = int32(p)
		}
	}
	dep := make([]int32, len(starts)-1)
	for c := range dep {
		dep[c] = -1
	}
	c := 0
	for p := 0; p < n; p++ {
		for int32(p) >= starts[c+1] {
			c++
		}
		start := starts[c]
		v := int32(p)
		if order != nil {
			v = order[p]
		}
		for _, a := range g.Arcs(v) {
			tp := a.Head
			if pos != nil {
				tp = pos[a.Head]
			}
			if int(tp) >= p {
				return nil, fmt.Errorf("graph: sweep order is not topological: position %d reads tail at position %d", p, tp)
			}
			if tp < start && tp > dep[c] {
				dep[c] = tp
			}
		}
	}
	return dep, nil
}
