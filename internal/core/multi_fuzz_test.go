package core

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
)

// FuzzMultiSweep fuzzes the multi-tree sweep differentially: for a
// random graph, weight scale, k and sweep order, MultiTree —
// sequential, and on the pooled scheduler with a 16-position grain —
// must agree per source with the Section III reference sweep
// (referenceTree). The weight cap spans 1- to 18-bit weights, and the
// ordered flag switches to an explicit sweep order, whose kernels map
// positions to vertices through the order array: level order for even
// seeds, descending rank for odd ones. k=1 runs the single-tree kernel.
func FuzzMultiSweep(f *testing.F) {
	// (nRaw, mRaw, seed, kRaw, wCap, ordered). The checked-in corpus in
	// testdata/fuzz/FuzzMultiSweep pins the same six tuples, named by
	// the byte widths their vertex ids and weights need (d8w8 … d16w32).
	f.Add(uint16(40), uint16(90), int64(1), uint8(3), uint32(200), false)
	f.Add(uint16(40), uint16(90), int64(2), uint8(7), uint32(50_000), false)
	f.Add(uint16(40), uint16(90), int64(3), uint8(15), uint32(90_000), false)
	f.Add(uint16(500), uint16(2400), int64(4), uint8(4), uint32(200), true)
	f.Add(uint16(500), uint16(2400), int64(5), uint8(0), uint32(50_000), true)
	f.Add(uint16(500), uint16(2400), int64(6), uint8(9), uint32(90_000), true)
	f.Add(uint16(300), uint16(1200), int64(8), uint8(0), uint32(90_000), false) // k=1, reordered
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed int64, kRaw uint8, wCap uint32, ordered bool) {
		n := 2 + int(nRaw)%600
		m := int(mRaw) % (5 * n)
		k := 1 + int(kRaw)%16
		maxW := 1 + int(wCap%(1<<18))
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n, m, maxW)
		h := ch.Build(g, ch.Options{Workers: 1})
		mode := SweepReordered
		if ordered {
			mode = SweepLevelOrder
			if seed%2 != 0 {
				mode = SweepRankOrder
			}
		}
		e, err := NewEngine(h, Options{Mode: mode, Workers: 4, ParallelGrain: 16})
		if err != nil {
			t.Fatal(err)
		}
		sources := make([]int32, k)
		want := make([][]uint32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
			want[i] = referenceTree(h, sources[i])
		}
		check := func(variant string) {
			for i := range sources {
				for v := int32(0); v < int32(n); v++ {
					if got := e.MultiDist(i, v); got != want[i][v] {
						t.Fatalf("%s %v n=%d k=%d lane %d: dist(%d)=%d, reference %d",
							variant, mode, n, k, i, v, got, want[i][v])
					}
				}
			}
		}
		e.MultiTree(sources, false)
		check("sequential")
		e.MultiTreeParallel(sources, false)
		check("pooled")
	})
}
