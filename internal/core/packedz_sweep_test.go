package core

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// engineTriple builds one hierarchy and returns compressed-stream,
// packed-stream, and legacy-CSR engines over it, for three-way
// differential tests of the compressed kernels.
func engineTriple(t *testing.T, g *graph.Graph, mode SweepMode, workers int) (z, packed, legacy *Engine) {
	t.Helper()
	h := ch.Build(g, ch.Options{Workers: 1})
	var err error
	opt := Options{Mode: mode, Workers: workers, CompressedSweep: true}
	if workers > 1 {
		// Deterministic multi-chunk boundaries on the small test graphs.
		opt.ParallelGrain = 16
	}
	if z, err = NewEngine(h, opt); err != nil {
		t.Fatal(err)
	}
	opt.CompressedSweep = false
	opt.PackedSweep = PackedOn
	if packed, err = NewEngine(h, opt); err != nil {
		t.Fatal(err)
	}
	opt.PackedSweep = PackedOff
	if legacy, err = NewEngine(h, opt); err != nil {
		t.Fatal(err)
	}
	if z.s.packedz == nil || z.s.packed != nil {
		t.Fatal("CompressedSweep engine did not build (only) the compressed stream")
	}
	return z, packed, legacy
}

// TestCompressedTreeMatchesAll is the single-tree differential oracle
// for the compressed kernels: compressed, packed, legacy, and plain
// Dijkstra must agree label-for-label in every sweep mode, sequentially
// and on the pooled scheduler.
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
					z, pk, lg := engineTriple(t, g, mode, workers)
					d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
					for q := 0; q < 4; q++ {
						s := int32(rng.Intn(n))
						if workers > 1 {
							z.TreeParallel(s)
							pk.TreeParallel(s)
							lg.TreeParallel(s)
						} else {
							z.Tree(s)
							pk.Tree(s)
							lg.Tree(s)
						}
						d.Run(s)
						for v := int32(0); v < int32(n); v++ {
							want := d.Dist(v)
							if got := z.Dist(v); got != want {
								t.Fatalf("workers %d trial %d src %d: compressed dist(%d)=%d, want %d", workers, trial, s, v, got, want)
							}
							if got := pk.Dist(v); got != want {
								t.Fatalf("workers %d trial %d src %d: packed dist(%d)=%d, want %d", workers, trial, s, v, got, want)
							}
							if got := lg.Dist(v); got != want {
								t.Fatalf("workers %d trial %d src %d: legacy dist(%d)=%d, want %d", workers, trial, s, v, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestCompressedTreeWithParentsMatchesDijkstra checks the
// parent-recording compressed kernels, sequential and pooled: distances
// match Dijkstra and every expanded PathTo is a real path in G whose
// weight equals the label.
func TestCompressedTreeWithParentsMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, mode := range allModes {
		for _, workers := range []int{1, 4} {
			g := gridGraph(rng, 5+rng.Intn(6), 5+rng.Intn(6), 20)
			n := g.NumVertices()
			z, _, _ := engineTriple(t, g, mode, workers)
			d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
			for q := 0; q < 3; q++ {
				s := int32(rng.Intn(n))
				if workers > 1 {
					z.TreeWithParentsParallel(s)
				} else {
					z.TreeWithParents(s)
				}
				d.Run(s)
				for v := int32(0); v < int32(n); v += 3 {
					want := d.Dist(v)
					if got := z.Dist(v); got != want {
						t.Fatalf("%s workers %d src %d: compressed dist(%d)=%d, want %d", mode, workers, s, v, got, want)
					}
					path := z.PathTo(v)
					if want == graph.Inf {
						if path != nil {
							t.Fatalf("%s src %d: PathTo(%d) non-nil for unreached vertex", mode, s, v)
						}
						continue
					}
					if path[0] != s || path[len(path)-1] != v {
						t.Fatalf("%s: PathTo(%d) endpoints %d..%d, want %d..%d", mode, v, path[0], path[len(path)-1], s, v)
					}
					var sum uint32
					for i := 1; i < len(path); i++ {
						sum += minArcWeight(t, g, path[i-1], path[i])
					}
					if sum != want {
						t.Fatalf("%s src %d: PathTo(%d) weighs %d, want %d", mode, s, v, sum, want)
					}
				}
			}
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
// a compression ratio strictly below the packed baseline's 1.0.
func TestCompressedSweepBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	g := gridGraph(rng, 12, 12, 30)
	z, pk, lg := engineTriple(t, g, SweepReordered, 1)
	if z.StreamBytes() <= 0 || pk.StreamBytes() <= 0 || lg.StreamBytes() <= 0 {
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
	if zb, pb := z.SweepBytes(1), pk.SweepBytes(1); zb >= pb {
		t.Fatalf("compressed SweepBytes(1)=%d not below packed %d", zb, pb)
	}
	// At k=16 the stream engines differ only in the graph stream: both
	// relax in registers, so neither pays a relax-target re-read. The
	// CSR oracle's memory-resident multi kernels do, once per arc per
	// lane (bandwidth.SweepTraffic.LabelRereads).
	diff := pk.StreamBytes() - z.StreamBytes()
	if zb, pb := z.SweepBytes(16), pk.SweepBytes(16); pb-zb != diff {
		t.Fatalf("SweepBytes(16) gap %d, want the stream gap %d", pb-zb, diff)
	}
	rereads := int64(16) * int64(z.s.downIn.NumArcs()) * 4
	pkGrowth := pk.SweepBytes(16) - pk.SweepBytes(1)
	if lgGrowth := lg.SweepBytes(16) - lg.SweepBytes(1); lgGrowth-pkGrowth != rereads {
		t.Fatalf("CSR oracle k=1→16 growth exceeds packed by %d, want the re-read term %d", lgGrowth-pkGrowth, rereads)
	}
}
