//go:build phastdebug

package invariant

import (
	"fmt"

	"phast/internal/ch"
	"phast/internal/graph"
)

// Enabled reports whether this binary is a checked build (-tags
// phastdebug) whose validators actually validate.
const Enabled = true

// CSRArrays validates a raw adjacency array: first has length n+1,
// starts at 0, is monotone non-decreasing, its sentinel equals the arc
// count, and every head is a vertex. This is the shape every sweep
// kernel indexes without bounds thinking.
func CSRArrays(n int, first []int32, arcs []graph.Arc) error {
	if len(first) != n+1 {
		return fmt.Errorf("invariant: first has length %d, want n+1 = %d", len(first), n+1)
	}
	if first[0] != 0 {
		return fmt.Errorf("invariant: first[0] = %d, want 0", first[0])
	}
	for v := 0; v < n; v++ {
		if first[v+1] < first[v] {
			return fmt.Errorf("invariant: first not monotone at vertex %d: %d > %d", v, first[v], first[v+1])
		}
	}
	if int(first[n]) != len(arcs) {
		return fmt.Errorf("invariant: first sentinel %d != arc count %d", first[n], len(arcs))
	}
	for i, a := range arcs {
		if a.Head < 0 || int(a.Head) >= n {
			return fmt.Errorf("invariant: arc %d has head %d outside [0,%d)", i, a.Head, n)
		}
	}
	return nil
}

// CSR validates a built graph's adjacency arrays.
func CSR(g *graph.Graph) error {
	return CSRArrays(g.NumVertices(), g.FirstOut(), g.ArcList())
}

// Permutation validates that perm is a bijection on [0, len(perm)).
func Permutation(perm []int32) error {
	seen := make([]bool, len(perm))
	for i, p := range perm {
		if p < 0 || int(p) >= len(perm) {
			return fmt.Errorf("invariant: perm[%d] = %d outside [0,%d)", i, p, len(perm))
		}
		if seen[p] {
			return fmt.Errorf("invariant: perm maps two indices to %d", p)
		}
		seen[p] = true
	}
	return nil
}

// LevelDescending validates the Section IV-A sweep order: levels listed
// in sweep (increasing engine ID) order never increase, and ranges — if
// given — partition [0,n) into maximal constant-level runs in strictly
// descending level order, which is what the parallel sweep barriers
// between.
func LevelDescending(levelsInSweepOrder []int32, ranges [][2]int32) error {
	n := int32(len(levelsInSweepOrder))
	for i := int32(1); i < n; i++ {
		if levelsInSweepOrder[i] > levelsInSweepOrder[i-1] {
			return fmt.Errorf("invariant: sweep order ascends a level at position %d: %d then %d",
				i, levelsInSweepOrder[i-1], levelsInSweepOrder[i])
		}
	}
	if ranges == nil {
		return nil
	}
	next := int32(0)
	prevLevel := int32(-1)
	for ri, r := range ranges {
		from, to := r[0], r[1]
		if from != next || to <= from || to > n {
			return fmt.Errorf("invariant: level range %d = [%d,%d) does not continue the partition at %d", ri, from, to, next)
		}
		l := levelsInSweepOrder[from]
		for v := from; v < to; v++ {
			if levelsInSweepOrder[v] != l {
				return fmt.Errorf("invariant: level range %d mixes levels %d and %d", ri, l, levelsInSweepOrder[v])
			}
		}
		if ri > 0 && l >= prevLevel {
			return fmt.Errorf("invariant: level ranges not strictly descending: %d then %d", prevLevel, l)
		}
		prevLevel = l
		next = to
	}
	if next != n {
		return fmt.Errorf("invariant: level ranges cover [0,%d), want [0,%d)", next, n)
	}
	return nil
}

// Hierarchy validates a contraction hierarchy end to end: every graph's
// CSR shape, the level array's bounds, and the structural CH invariants
// (rank permutation, up arcs ascend, down arcs descend, DownIn is the
// transpose of Down).
func Hierarchy(h *ch.Hierarchy) error {
	for _, gr := range []struct {
		name string
		g    *graph.Graph
	}{{"G", h.G}, {"Up", h.Up}, {"Down", h.Down}, {"DownIn", h.DownIn}} {
		if err := CSR(gr.g); err != nil {
			return fmt.Errorf("%s graph: %w", gr.name, err)
		}
	}
	maxSeen := int32(0)
	for v, l := range h.Level {
		if l < 0 || l > h.MaxLevel {
			return fmt.Errorf("invariant: level[%d] = %d outside [0,%d]", v, l, h.MaxLevel)
		}
		if l > maxSeen {
			maxSeen = l
		}
	}
	if len(h.Level) > 0 && maxSeen != h.MaxLevel {
		return fmt.Errorf("invariant: MaxLevel = %d but highest level is %d", h.MaxLevel, maxSeen)
	}
	return h.CheckInvariants()
}

// CustomizedMetric validates the triangle-relaxation fixed point a
// customizable hierarchy's weights must satisfy, using only the
// hierarchy's own arrays (no oracle search): every Up/Down arc (u,w)
// is at most the minimum original arc weight between u and w, at most
// every lower triangle through a vertex z below both endpoints
// (weight(u,z↓) + weight(z,w↑), saturating), and exactly achieved by
// its recorded mid — the leg sum for mid z ≥ 0, the original arc for
// mid -1. It also re-checks that DownIn mirrors Down's weights, since
// the sweep reads one and path unpacking the other. Only hierarchies
// built with Options.Customizable (all-pairs shortcuts) satisfy the
// closure this walks; witness-pruned hierarchies will fail it.
func CustomizedMetric(h *ch.Hierarchy) error {
	n := h.G.NumVertices()
	// achieved checks one directed hierarchy arc (u,w) of weight w
	// against its recorded mid and the original graph.
	achieved := func(u, w int32, wt uint32, mid int32) error {
		if orig, ok := h.G.FindArc(u, w); ok && wt > orig {
			return fmt.Errorf("invariant: hierarchy arc (%d,%d) weighs %d, original arc %d", u, w, wt, orig)
		}
		if mid < 0 {
			orig, ok := h.G.FindArc(u, w)
			if !ok {
				// A pure shortcut keeps mid -1 when no triangle (and no
				// original arc) offers a finite value: it is closed under
				// this metric, and must say so.
				if wt != graph.Inf {
					return fmt.Errorf("invariant: arc (%d,%d) weighs %d with no original arc and no mid", u, w, wt)
				}
				return nil
			}
			if wt != orig {
				return fmt.Errorf("invariant: arc (%d,%d) weighs %d, its original arc %d", u, w, wt, orig)
			}
			return nil
		}
		if h.Rank[mid] >= h.Rank[u] || h.Rank[mid] >= h.Rank[w] {
			return fmt.Errorf("invariant: arc (%d,%d) has mid %d not below both endpoints", u, w, mid)
		}
		down, ok1 := h.Down.FindArc(u, mid)
		up, ok2 := h.Up.FindArc(mid, w)
		if !ok1 || !ok2 {
			return fmt.Errorf("invariant: arc (%d,%d) mid %d has missing legs", u, w, mid)
		}
		if sum := graph.AddSat(down, up); wt != sum {
			return fmt.Errorf("invariant: arc (%d,%d) weighs %d, its mid-%d legs sum to %d", u, w, wt, mid, sum)
		}
		return nil
	}
	for u := int32(0); u < int32(n); u++ {
		for i, a := range h.Up.Arcs(u) {
			if err := achieved(u, a.Head, a.Weight, h.UpMid[int(h.Up.FirstOut()[u])+i]); err != nil {
				return err
			}
		}
		for i, a := range h.Down.Arcs(u) {
			if err := achieved(u, a.Head, a.Weight, h.DownMid[int(h.Down.FirstOut()[u])+i]); err != nil {
				return err
			}
		}
	}
	// Lower-triangle dominance and closure: for every z, every pair of a
	// down-in arc (u,z) and an up arc (z,w) must have a hierarchy arc
	// (u,w) no heavier than the two legs.
	for z := int32(0); z < int32(n); z++ {
		ups := h.Up.Arcs(z)
		for _, din := range h.DownIn.Arcs(z) {
			u := din.Head // DownIn stores the tail
			if dw, ok := h.Down.FindArc(u, z); !ok || dw != din.Weight {
				return fmt.Errorf("invariant: DownIn arc (%d,%d) weighs %d, Down says %d (found %v)", u, z, din.Weight, dw, ok)
			}
			for _, ua := range ups {
				w := ua.Head
				if w == u {
					continue
				}
				var have uint32
				var ok bool
				if h.Rank[u] < h.Rank[w] {
					have, ok = h.Up.FindArc(u, w)
				} else {
					have, ok = h.Down.FindArc(u, w)
				}
				if !ok {
					return fmt.Errorf("invariant: triangle closure missing arc (%d,%d) for mid %d", u, w, z)
				}
				if sum := graph.AddSat(din.Weight, ua.Weight); have > sum {
					return fmt.Errorf("invariant: arc (%d,%d) weighs %d, lower triangle via %d offers %d", u, w, have, z, sum)
				}
			}
		}
	}
	return nil
}

// PackedStream validates the arc-major sweep stream against the CSR
// graph and sweep order it was built from: dimensions match, the
// grammar holds (Packed.Unpack walks it in full: the block index tiles
// the stream, bit 31 of the tail words marks exactly the first arc of
// every block, dummy blocks are lone Inf self-arcs), and the blocks,
// read in the sweep order, reproduce the adjacency lists exactly.
func PackedStream(p *graph.Packed, g *graph.Graph, order []int32) error {
	if p.NumVertices() != g.NumVertices() || p.NumArcs() != g.NumArcs() {
		return fmt.Errorf("invariant: packed dims %d/%d, graph %d/%d",
			p.NumVertices(), p.NumArcs(), g.NumVertices(), g.NumArcs())
	}
	ug, err := p.Unpack(order)
	if err != nil {
		return fmt.Errorf("invariant: packed stream malformed: %w", err)
	}
	if !ug.Equal(g) {
		return fmt.Errorf("invariant: packed stream does not round-trip to its CSR graph")
	}
	return nil
}

// ChunkDepsAt validates the persistent scheduler's per-chunk dependency
// thresholds against an independent recompute from the downward CSR
// graph and the sweep order. chunkStart (length numChunks+1, spanning
// [0,n), strictly increasing) gives the chunk boundaries, and
// chunkDep[c] must be the chunk containing the highest-positioned
// external predecessor of any vertex in chunk c (or -1 when every
// predecessor is internal). This is the shape the cache-budget
// chunking produces; uniform grains are the special case chunkStart =
// 0, grain, 2·grain, … Along the way it re-proves the property the
// scheduler's correctness rests on: the sweep order is topological for
// the downward graph, so every incoming arc's tail sits at a strictly
// earlier position.
func ChunkDepsAt(g *graph.Graph, order []int32, chunkStart []int32, chunkDep []int32) error {
	n := g.NumVertices()
	numChunks := len(chunkStart) - 1
	if numChunks < 1 || chunkStart[0] != 0 || int(chunkStart[numChunks]) != n {
		return fmt.Errorf("invariant: chunk boundaries span [%d,%d] in %d chunks, want [0,%d]",
			chunkStart[0], chunkStart[len(chunkStart)-1], numChunks, n)
	}
	for c := 0; c < numChunks; c++ {
		if chunkStart[c+1] <= chunkStart[c] {
			return fmt.Errorf("invariant: chunk %d is empty or reversed: [%d,%d)", c, chunkStart[c], chunkStart[c+1])
		}
	}
	if len(chunkDep) != numChunks {
		return fmt.Errorf("invariant: %d chunk dep bounds for %d chunks", len(chunkDep), numChunks)
	}
	var pos []int32
	if order != nil {
		pos = make([]int32, n)
		for p, v := range order {
			pos[v] = int32(p)
		}
	}
	// posChunk[p] = index of the chunk containing sweep position p.
	posChunk := make([]int32, n)
	for c := 0; c < numChunks; c++ {
		for p := chunkStart[c]; p < chunkStart[c+1]; p++ {
			posChunk[p] = int32(c)
		}
	}
	for c := 0; c < numChunks; c++ {
		start, end := int(chunkStart[c]), int(chunkStart[c+1])
		bound := int32(-1)
		for p := start; p < end; p++ {
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
					return fmt.Errorf("invariant: sweep order not topological: position %d depends on position %d", p, tp)
				}
				if int(tp) < start && tp > bound {
					bound = tp
				}
			}
		}
		want := int32(-1)
		if bound >= 0 {
			want = posChunk[bound]
		}
		if chunkDep[c] != want {
			return fmt.Errorf("invariant: chunkDep[%d] = %d, recompute says %d", c, chunkDep[c], want)
		}
		if chunkDep[c] >= int32(c) {
			return fmt.Errorf("invariant: chunkDep[%d] = %d not strictly below its own chunk", c, chunkDep[c])
		}
	}
	return nil
}

// MinHeap validates the binary-heap order of a key array laid out the
// way core's chHeap stores it: keys[(i-1)/2] <= keys[i].
func MinHeap(keys []uint32) error {
	for i := 1; i < len(keys); i++ {
		if p := (i - 1) / 2; keys[p] > keys[i] {
			return fmt.Errorf("invariant: heap order violated: keys[%d]=%d > keys[%d]=%d", p, keys[p], i, keys[i])
		}
	}
	return nil
}

// HeapIndex validates the heap's position index: pos[vs[i]] == i for
// every slot, and no stale positive entries point at vacated slots.
func HeapIndex(vs, pos []int32) error {
	for i, v := range vs {
		if v < 0 || int(v) >= len(pos) {
			return fmt.Errorf("invariant: heap slot %d holds out-of-range vertex %d", i, v)
		}
		if pos[v] != int32(i) {
			return fmt.Errorf("invariant: pos[%d] = %d, want %d", v, pos[v], i)
		}
	}
	live := 0
	for _, p := range pos {
		if p >= 0 {
			live++
		}
	}
	if live != len(vs) {
		return fmt.Errorf("invariant: %d live pos entries for %d heap slots", live, len(vs))
	}
	return nil
}
