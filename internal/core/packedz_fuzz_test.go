package core

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
)

// FuzzCompressedMultiSweep fuzzes the compressed multi-tree kernel's
// block decode and staging (decodeZTile feeding multi_relax.go)
// differentially: for a random graph, weight scale, k, and sweep
// order, the compressed sweep — sequential and chunk-scheduled — must
// agree label-for-label with the packed engine, which feeds the same
// relax from its stream words. The weight cap spans the 1/2/4-byte weight widths and the vertex count spans 1- and
// 2-byte deltas, so mutation walks the header-shape space the kernels
// specialize; the checked-in corpus pins one entry per shape the
// builder can emit at fuzz-sized n (d32 needs >64Ki vertices per case
// and is exercised by the generic-geometry fallback path instead).
func FuzzCompressedMultiSweep(f *testing.F) {
	// Corpus: (nRaw, mRaw, seed, kRaw, wCap, ordered) pinned per header
	// shape; see TestCompressedFuzzCorpusShapes for the coverage proof.
	f.Add(uint16(40), uint16(90), int64(1), uint8(3), uint32(200), false)      // d8w8
	f.Add(uint16(40), uint16(90), int64(2), uint8(7), uint32(50_000), false)   // d8w16
	f.Add(uint16(40), uint16(90), int64(3), uint8(15), uint32(90_000), false)  // d8w32
	f.Add(uint16(500), uint16(2400), int64(4), uint8(4), uint32(200), true)    // d16w8
	f.Add(uint16(500), uint16(2400), int64(5), uint8(0), uint32(50_000), true) // d16w16
	f.Add(uint16(500), uint16(2400), int64(6), uint8(9), uint32(90_000), true) // d16w32
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
			// Explicit sweep order: blocks carry vertex words and the
			// kernels remap staged heads through the order array.
			mode = SweepLevelOrder
		}
		opt := Options{Mode: mode, Workers: 4, CompressedSweep: true, ParallelGrain: 16}
		z, err := NewEngine(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.CompressedSweep = false
		pk, err := NewEngine(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		pk.MultiTree(sources, false)
		want := make([][]uint32, k)
		for i := range sources {
			want[i] = make([]uint32, n)
			pk.CopyLaneDistances(i, want[i])
		}
		check := func(variant string) {
			for i := range sources {
				for v := int32(0); v < int32(n); v++ {
					if got := z.MultiDist(i, v); got != want[i][v] {
						t.Fatalf("%s n=%d k=%d lane %d: dist(%d)=%d, want %d",
							variant, n, k, i, v, got, want[i][v])
					}
				}
			}
		}
		z.MultiTree(sources, false)
		check("sequential")
		z.MultiTreeParallel(sources, false) // chunk-scheduled decode
		check("parallel")
	})
}

// TestCompressedFuzzCorpusShapes proves the FuzzCompressedMultiSweep
// corpus covers the header shapes it claims: each seed tuple's graph
// must compress to a stream whose histogram contains the pinned shape.
func TestCompressedFuzzCorpusShapes(t *testing.T) {
	cases := []struct {
		nRaw, mRaw uint16
		seed       int64
		wCap       uint32
		ordered    bool
		shape      string
	}{
		{40, 90, 1, 200, false, "d8w8"},
		{40, 90, 2, 50_000, false, "d8w16"},
		{40, 90, 3, 90_000, false, "d8w32"},
		{500, 2400, 4, 200, true, "d16w8"},
		{500, 2400, 5, 50_000, true, "d16w16"},
		{500, 2400, 6, 90_000, true, "d16w32"},
	}
	for _, c := range cases {
		n := 2 + int(c.nRaw)%600
		m := int(c.mRaw) % (5 * n)
		maxW := 1 + int(c.wCap%(1<<18))
		rng := rand.New(rand.NewSource(c.seed))
		g := randomGraph(rng, n, m, maxW)
		h := ch.Build(g, ch.Options{Workers: 1})
		mode := SweepReordered
		if c.ordered {
			mode = SweepLevelOrder
		}
		z, err := NewEngine(h, Options{Mode: mode, Workers: 1, CompressedSweep: true})
		if err != nil {
			t.Fatal(err)
		}
		hist := z.StreamShapeHistogram()
		if hist[c.shape] == 0 {
			t.Errorf("corpus seed %d: stream histogram %v lacks pinned shape %s", c.seed, hist, c.shape)
		}
		if _, ok := hist["malformed"]; ok {
			t.Errorf("corpus seed %d: builder emitted a malformed header", c.seed)
		}
	}
}
