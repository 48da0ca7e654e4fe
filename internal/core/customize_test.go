package core

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// TestCustomizedEngineDifferential is the engine-level half of the
// differential customization oracle: a customized hierarchy mounted
// via NewEngineSharingPool must produce Dijkstra-identical trees under
// every sweep mode, for single trees and k-lane batches alike, and its
// single trees must match the Section III reference sweep over the
// customized hierarchy. This is what the server relies on when it swaps a customized engine in mid-traffic — every execution
// path must agree on the new metric, not just the CH query.
func TestCustomizedEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gridGraph(rng, 9, 7, 40)
	topo, err := ch.BuildCustomizable(g, ch.Options{Workers: 2})
	if err != nil {
		t.Fatalf("BuildCustomizable: %v", err)
	}
	n := g.NumVertices()

	configs := []struct {
		name string
		opt  Options
	}{
		{"reordered/packed", Options{Mode: SweepReordered, Workers: 2, ParallelGrain: 16}},
		{"levelorder/packed", Options{Mode: SweepLevelOrder, Workers: 2, ParallelGrain: 16}},
		{"rankorder/packed", Options{Mode: SweepRankOrder, Workers: 2, ParallelGrain: 16}},
	}

	for metric := 0; metric < 3; metric++ {
		w := make([]uint32, g.NumArcs())
		for i := range w {
			switch rng.Intn(10) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = graph.Inf
			default:
				w[i] = uint32(rng.Intn(500))
			}
		}
		h2, err := topo.Customize(w, ch.CustomizeOptions{Epoch: int64(metric + 1)})
		if err != nil {
			t.Fatalf("Customize: %v", err)
		}
		gw, err := g.WithWeights(w)
		if err != nil {
			t.Fatal(err)
		}
		dij := sssp.NewDijkstra(gw, pq.KindBinaryHeap)
		oracle := make(map[int32][]uint32)
		wantDist := func(s int32) []uint32 {
			if d, ok := oracle[s]; ok {
				return d
			}
			dij.Run(s)
			d := make([]uint32, n)
			for v := 0; v < n; v++ {
				d[v] = dij.Dist(int32(v))
			}
			oracle[s] = d
			return d
		}

		for _, cfg := range configs {
			base, err := NewEngine(topo.Hierarchy(), cfg.opt)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", cfg.name, err)
			}
			eng, err := NewEngineSharingPool(base, h2)
			if err != nil {
				t.Fatalf("%s: NewEngineSharingPool: %v", cfg.name, err)
			}
			for _, k := range []int{1, 4, 16} {
				sources := make([]int32, k)
				for i := range sources {
					sources[i] = int32(rng.Intn(n))
				}
				eng.MultiTreeParallel(sources, false)
				for i, s := range sources {
					want := wantDist(s)
					for v := 0; v < n; v++ {
						if got := eng.MultiDist(i, int32(v)); got != want[v] {
							t.Fatalf("%s metric %d k=%d: tree %d dist[%d] = %d, Dijkstra says %d",
								cfg.name, metric, k, s, v, got, want[v])
						}
					}
				}
			}
			// The single-tree sweeps share the same kernels but not the
			// same entry points; pin them too.
			s := int32(rng.Intn(n))
			want := wantDist(s)
			ref := referenceDist(eng, s)
			eng.Tree(s)
			for v := 0; v < n; v++ {
				if got := eng.Dist(int32(v)); got != want[v] || ref[v] != want[v] {
					t.Fatalf("%s metric %d: Tree dist[%d] = %d, reference %d, Dijkstra says %d", cfg.name, metric, v, got, ref[v], want[v])
				}
			}
			eng.TreeParallel(s)
			for v := 0; v < n; v++ {
				if got := eng.Dist(int32(v)); got != want[v] {
					t.Fatalf("%s metric %d: TreeParallel dist[%d] = %d, Dijkstra says %d", cfg.name, metric, v, got, want[v])
				}
			}
		}
	}
}
