package core

import "phast/internal/graph"

// The multi-tree relax (Section IV-B). Labels are vertex-major — the k
// labels of engine vertex v sit at kdist[v*k : v*k+k] — so one arc's k
// tail labels are one contiguous run, the paper's "k labels in one SSE
// register". The multi kernel of packed.go walks the stream and hands
// each vertex's incoming arcs, a slice of the stream's (tail, weight)
// word pairs, to relaxVertexK, which masks the first-arc bit off the
// tails:
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

// relaxVertexK relaxes the k labels of engine vertex vi over arcs, a
// run of (tail engine ID, weight) pairs as laid out in the stream (the
// first tail word carries graph.FirstArc, masked here), and stores the
// k minima.
// seeded selects the starting value: the vertex's current labels (set
// by the upward searches) or Inf.
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
			u := int(arcs[t]&graph.TailMask)*k + j
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
			u := int(arcs[t]&graph.TailMask)*k + j
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
			if nd := graph.AddSat(kd[int(arcs[t]&graph.TailMask)*k+j], arcs[t+1]); nd < b0 {
				b0 = nd
			}
		}
		dst[j] = b0
	}
}
