package core

import (
	"fmt"
	"math/rand"
	"testing"

	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// TestCompressedTreeMatchesAll is the single-tree differential oracle
// for both streams: compressed, packed, the Section III reference sweep
// and plain Dijkstra must agree label-for-label in every sweep mode,
// sequentially and on the pooled scheduler.
func TestCompressedTreeMatchesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				for trial := 0; trial < 3; trial++ {
					var g *graph.Graph
					if trial%2 == 0 {
						n := 2 + rng.Intn(60)
						g = randomGraph(rng, n, rng.Intn(5*n), 25)
					} else {
						g = gridGraph(rng, 4+rng.Intn(8), 4+rng.Intn(8), 30)
					}
					n := g.NumVertices()
					pk, z := enginePair(t, g, mode, workers)
					d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
					for q := 0; q < 4; q++ {
						s := int32(rng.Intn(n))
						if workers > 1 {
							z.TreeParallel(s)
							pk.TreeParallel(s)
						} else {
							z.Tree(s)
							pk.Tree(s)
						}
						d.Run(s)
						ref := referenceDist(pk, s)
						for v := int32(0); v < int32(n); v++ {
							want := d.Dist(v)
							if got := z.Dist(v); got != want {
								t.Fatalf("workers %d trial %d src %d: compressed dist(%d)=%d, want %d", workers, trial, s, v, got, want)
							}
							if got := pk.Dist(v); got != want {
								t.Fatalf("workers %d trial %d src %d: packed dist(%d)=%d, want %d", workers, trial, s, v, got, want)
							}
							if got := ref[v]; got != want {
								t.Fatalf("workers %d trial %d src %d: reference dist(%d)=%d, want %d", workers, trial, s, v, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestCompressedTreeWithParentsMatchesDijkstra checks the
// parent-recording compressed kernel, sequential and pooled
// (checkTreeWithParents).
func TestCompressedTreeWithParentsMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, mode := range allModes {
		for _, workers := range []int{1, 4} {
			g := gridGraph(rng, 5+rng.Intn(6), 5+rng.Intn(6), 20)
			_, z := enginePair(t, g, mode, workers)
			checkTreeWithParents(t, rng, g, z, workers > 1, fmt.Sprintf("%s compressed workers %d", mode, workers))
		}
	}
}

// TestCompressedByteBudgetChunks runs the compressed pooled sweep under
// a tiny explicit ChunkBytes budget — many small, uneven chunks with
// real cross-chunk dependencies — and checks labels against Dijkstra.
func TestCompressedByteBudgetChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := gridGraph(rng, 20, 15, 40)
	n := g.NumVertices()
	h := ch.Build(g, ch.Options{Workers: 1})
	for _, budget := range []int{32, 256, 4096} {
		z, err := NewEngine(h, Options{Workers: 4, CompressedSweep: true, ChunkBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
		for q := 0; q < 3; q++ {
			s := int32(rng.Intn(n))
			z.TreeParallel(s)
			d.Run(s)
			for v := int32(0); v < int32(n); v++ {
				if got, want := z.Dist(v), d.Dist(v); got != want {
					t.Fatalf("budget %d src %d: dist(%d)=%d, want %d", budget, s, v, got, want)
				}
			}
		}
	}
}

// TestCompressedSweepBytesAccounting pins the stream accounting: a
// compressed engine reports its byte-granular stream in SweepBytes and
// a compression ratio strictly below the packed baseline's 1.0, the two
// streams differ in SweepBytes by exactly their stream bytes, and a
// pooled engine models the same traffic as a sequential one.
func TestCompressedSweepBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	g := gridGraph(rng, 12, 12, 30)
	pk, z := enginePair(t, g, SweepReordered, 1)
	if z.StreamBytes() <= 0 || pk.StreamBytes() <= 0 {
		t.Fatal("an engine reports a non-positive stream footprint")
	}
	if z.StreamBytes() >= pk.StreamBytes() {
		t.Fatalf("compressed stream %d B not below packed %d B", z.StreamBytes(), pk.StreamBytes())
	}
	if r := z.CompressionRatio(); r <= 0 || r >= 1 {
		t.Fatalf("compressed ratio %.3f, want (0,1)", r)
	}
	if r := pk.CompressionRatio(); r != 1 {
		t.Fatalf("packed ratio %.3f, want 1", r)
	}
	// Both streams relax in registers, so at every k they differ only
	// in the graph stream.
	diff := pk.StreamBytes() - z.StreamBytes()
	for _, k := range []int{1, 16} {
		if zb, pb := z.SweepBytes(k), pk.SweepBytes(k); pb-zb != diff {
			t.Fatalf("SweepBytes(%d) gap %d, want the stream gap %d", k, pb-zb, diff)
		}
	}
	pooled, _ := enginePair(t, g, SweepReordered, 4)
	if pooled.s.numChunks < 2 {
		t.Fatalf("pooled engine has %d chunks, want several", pooled.s.numChunks)
	}
	if pb, sb := pooled.SweepBytes(16), pk.SweepBytes(16); pb != sb {
		t.Fatalf("pooled SweepBytes(16)=%d, sequential %d: the model bills no scheduler traffic", pb, sb)
	}
}
