package core

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// TestMultiTreeMatchesAll is the differential suite of the
// register-resident multi-tree relax (multi_relax.go). For every k in
// the list — the 4-, 2- and 1-lane groups and their combinations, k=1's
// single-tree route, and batches past the server's 16 — the engine must
// agree label-for-label with Dijkstra and with the Section III reference
// sweep (referenceTree): sequentially and on the pooled scheduler, in
// every sweep mode. Level and rank order map positions to vertices
// through the order array.
func TestMultiTreeMatchesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			checkMultiTreeMatchesAll(t, rng, gridGraph(rng, 20, 15, 30), mode, true)
			// A deep downward block: the far hub's 70 in-arcs (hubGraph).
			checkMultiTreeMatchesAll(t, rng, hubGraph(rng, 70), mode, false)
		})
	}
}

// checkMultiTreeMatchesAll runs the suite above on one graph. overlap
// additionally requires the pinned-grain pooled schedule to have chunks
// that may run concurrently.
func checkMultiTreeMatchesAll(t *testing.T, rng *rand.Rand, g *graph.Graph, mode SweepMode, overlap bool) {
	t.Helper()
	n := g.NumVertices()
	h := ch.Build(g, ch.Options{Workers: 1})
	want := make([][]uint32, n)
	ref := make([][]uint32, n)
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	for s := range want {
		d.Run(int32(s))
		want[s] = make([]uint32, n)
		for v := range want[s] {
			want[s][v] = d.Dist(int32(v))
		}
		ref[s] = referenceTree(h, int32(s))
	}
	for _, workers := range []int{1, 4} {
		e := packedEngine(t, g, mode, workers)
		if workers > 1 && overlap {
			requireOverlappingChunks(t, e)
		}
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32} {
			sources := make([]int32, k)
			for i := range sources {
				sources[i] = int32(rng.Intn(n))
			}
			before := e.SchedStats().Sweeps
			if workers > 1 {
				e.MultiTreeParallel(sources, false)
				if e.SchedStats().Sweeps == before {
					t.Fatalf("k=%d: pooled sweep did not run on the scheduler", k)
				}
			} else {
				e.MultiTree(sources, false)
			}
			for i, s := range sources {
				for v := int32(0); v < int32(n); v++ {
					got := e.MultiDist(i, v)
					if got != want[s][v] || got != ref[s][v] {
						t.Fatalf("n=%d workers %d k=%d lane %d src %d: dist(%d)=%d, Dijkstra %d, reference %d",
							n, workers, k, i, s, v, got, want[s][v], ref[s][v])
					}
				}
			}
		}
	}
}

// hubGraph returns n spokes joined to two hubs: a near hub by short
// arcs and a far hub by long ones. Every path through the far hub has a
// two-hop witness through the near hub, so contraction takes the far
// hub first and all n of its in-arcs stay in its downward block.
func hubGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n + 2)
	near, far := int32(n), int32(n+1)
	for v := int32(0); v < int32(n); v++ {
		w := uint32(1 + rng.Intn(3))
		b.MustAddArc(near, v, w)
		b.MustAddArc(v, near, w)
		w = uint32(1000 + rng.Intn(100))
		b.MustAddArc(far, v, w)
		b.MustAddArc(v, far, w)
	}
	return b.Build()
}

// requireOverlappingChunks fails unless e's pooled schedule has a chunk
// that may start before its predecessor has finished, so the pooled
// runs above really interleave chunks.
func requireOverlappingChunks(t *testing.T, e *Engine) {
	t.Helper()
	for c, dep := range e.s.chunkDep {
		if dep < int32(c)-1 {
			return
		}
	}
	t.Fatalf("%d-chunk schedule %v has no chunk independent of its predecessor", e.s.numChunks, e.s.chunkDep)
}
