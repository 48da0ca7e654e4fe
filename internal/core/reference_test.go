package core

import (
	"phast/internal/ch"
	"phast/internal/graph"
)

// referenceTree is the test-only PHAST of Section III, the oracle the
// production kernels are checked against beside Dijkstra: an upward
// Dijkstra from source over h.Up, then one scan of all vertices in
// descending rank that relaxes each vertex's incoming downward arcs
// (h.DownIn). Labels the upward search did not reach are implicitly
// Inf. It is deliberately plain: no sweep stream, no reordering, no
// seed cursor, no chunks, and a linear scan in place of a heap. IDs are
// h's own.
func referenceTree(h *ch.Hierarchy, source int32) []uint32 {
	n := h.G.NumVertices()
	up := make([]uint32, n)
	reached := make([]bool, n)
	settled := make([]bool, n)
	reached[source] = true
	for {
		v := int32(-1)
		for u := int32(0); u < int32(n); u++ {
			if reached[u] && !settled[u] && (v < 0 || up[u] < up[v]) {
				v = u
			}
		}
		if v < 0 {
			break
		}
		settled[v] = true
		for _, a := range h.Up.Arcs(v) {
			if nd := graph.AddSat(up[v], a.Weight); !reached[a.Head] || nd < up[a.Head] {
				up[a.Head], reached[a.Head] = nd, true
			}
		}
	}
	dist := make([]uint32, n)
	byRank := graph.InvertPermutation(h.Rank)
	for r := n - 1; r >= 0; r-- {
		v := byRank[r]
		best := graph.Inf
		if reached[v] {
			best = up[v]
		}
		for _, a := range h.DownIn.Arcs(v) {
			if nd := graph.AddSat(dist[a.Head], a.Weight); nd < best {
				best = nd
			}
		}
		dist[v] = best
	}
	return dist
}

// referenceDist runs referenceTree on e's hierarchy and returns the
// labels indexed by original vertex ID, the ID space of e.Dist.
func referenceDist(e *Engine, source int32) []uint32 {
	ref := referenceTree(e.Hierarchy(), e.EngineID(source))
	out := make([]uint32, len(ref))
	for v := int32(0); v < int32(len(out)); v++ {
		out[v] = ref[e.EngineID(v)]
	}
	return out
}
