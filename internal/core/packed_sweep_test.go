package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"phast/internal/bandwidth"
	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// packedEngine builds a hierarchy over g and an engine on it for the
// differential tests. With more than one worker the grain is pinned to
// 16 positions, so the small test graphs sweep in several chunks.
func packedEngine(t *testing.T, g *graph.Graph, mode SweepMode, workers int) *Engine {
	t.Helper()
	h := ch.Build(g, ch.Options{Workers: 1})
	opt := Options{Mode: mode, Workers: workers}
	if workers > 1 {
		opt.ParallelGrain = 16
	}
	e, err := NewEngine(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPackedTreeMatchesLegacyAndDijkstra is the single-tree differential
// oracle of the packed kernel: its labels, those of the legacy Section
// III sweep (referenceTree, kept as a test-only reference) and plain
// Dijkstra must agree label-for-label in every sweep mode.
func TestPackedTreeMatchesLegacyAndDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			checkTreeDifferential(t, rng, mode, 1, 5, 5)
		})
	}
}

// TestPackedTreePooledMatchesAll is the same differential on the pooled
// scheduler: TreeParallel over a 16-position grain, so every graph
// sweeps in several dependent chunks.
func TestPackedTreePooledMatchesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			checkTreeDifferential(t, rng, mode, 4, 3, 4)
		})
	}
}

// checkTreeDifferential builds trials engines in mode, alternating
// random and grid graphs, and checks queries trees on each (pooled when
// workers > 1) against the reference sweep and Dijkstra on every vertex.
func checkTreeDifferential(t *testing.T, rng *rand.Rand, mode SweepMode, workers, trials, queries int) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			n := 2 + rng.Intn(60)
			g = randomGraph(rng, n, rng.Intn(5*n), 25)
		} else {
			g = gridGraph(rng, 4+rng.Intn(8), 4+rng.Intn(8), 30)
		}
		n := g.NumVertices()
		pk := packedEngine(t, g, mode, workers)
		d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
		for q := 0; q < queries; q++ {
			s := int32(rng.Intn(n))
			if workers > 1 {
				pk.TreeParallel(s)
			} else {
				pk.Tree(s)
			}
			d.Run(s)
			ref := referenceDist(pk, s)
			for v := int32(0); v < int32(n); v++ {
				want := d.Dist(v)
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

// minArcWeight returns the cheapest u→v arc weight in g (randomGraph can
// produce parallel arcs).
func minArcWeight(t *testing.T, g *graph.Graph, u, v int32) uint32 {
	t.Helper()
	w := graph.Inf
	for _, a := range g.Arcs(u) {
		if a.Head == v && a.Weight < w {
			w = a.Weight
		}
	}
	if w == graph.Inf {
		t.Fatalf("path uses nonexistent arc %d→%d", u, v)
	}
	return w
}

// TestPackedTreeWithParentsMatchesDijkstra checks the parent-recording
// packed kernel, sequential and pooled (checkTreeWithParents).
func TestPackedTreeWithParentsMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, mode := range allModes {
		for _, workers := range []int{1, 4} {
			g := gridGraph(rng, 5+rng.Intn(6), 5+rng.Intn(6), 20)
			pk := packedEngine(t, g, mode, workers)
			checkTreeWithParents(t, rng, g, pk, workers > 1, fmt.Sprintf("%s packed workers %d", mode, workers))
		}
	}
}

// TestPackedTreeWithParentsRandomGraphs runs the same parent checks on
// sparse random graphs, where some vertices stay unreached and must keep
// a nil path, sequential and pooled.
func TestPackedTreeWithParentsRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, mode := range allModes {
		for _, workers := range []int{1, 4} {
			n := 20 + rng.Intn(60)
			g := randomGraph(rng, n, n+rng.Intn(2*n), 20)
			pk := packedEngine(t, g, mode, workers)
			checkTreeWithParents(t, rng, g, pk, workers > 1, fmt.Sprintf("%s random workers %d", mode, workers))
		}
	}
}

// checkTreeWithParents runs three parent-recording trees on e, pooled
// when parallel is set: labels must match Dijkstra and the reference
// sweep, and every expanded PathTo must be a real path in g from the
// source whose weight equals the label.
func checkTreeWithParents(t *testing.T, rng *rand.Rand, g *graph.Graph, e *Engine, parallel bool, what string) {
	t.Helper()
	n := g.NumVertices()
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	for q := 0; q < 3; q++ {
		s := int32(rng.Intn(n))
		if parallel {
			e.TreeWithParentsParallel(s)
		} else {
			e.TreeWithParents(s)
		}
		d.Run(s)
		ref := referenceDist(e, s)
		for v := int32(0); v < int32(n); v += 3 {
			want := d.Dist(v)
			if got := e.Dist(v); got != want || ref[v] != want {
				t.Fatalf("%s src %d: dist(%d)=%d, reference %d, Dijkstra %d", what, s, v, got, ref[v], want)
			}
			path := e.PathTo(v)
			if want == graph.Inf {
				if path != nil {
					t.Fatalf("%s src %d: PathTo(%d) non-nil for unreached vertex", what, s, v)
				}
				continue
			}
			if path[0] != s || path[len(path)-1] != v {
				t.Fatalf("%s: PathTo(%d) endpoints %d..%d, want %d..%d", what, v, path[0], path[len(path)-1], s, v)
			}
			var sum uint32
			for i := 1; i < len(path); i++ {
				sum += minArcWeight(t, g, path[i-1], path[i])
			}
			if sum != want {
				t.Fatalf("%s src %d: PathTo(%d) weighs %d, want %d", what, s, v, sum, want)
			}
		}
	}
}

// TestPackedMultiTreeMatchesLegacyAndDijkstra covers the packed
// multi-tree sweep for k ∈ {1, 4, 16} against the legacy Section III
// sweep (referenceTree) and Dijkstra, in every sweep mode.
func TestPackedMultiTreeMatchesLegacyAndDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			g := gridGraph(rng, 6+rng.Intn(5), 6+rng.Intn(5), 25)
			n := g.NumVertices()
			pk := packedEngine(t, g, mode, 1)
			d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
			for _, k := range []int{1, 4, 16} {
				sources := make([]int32, k)
				for i := range sources {
					sources[i] = int32(rng.Intn(n))
				}
				pk.MultiTree(sources, false)
				for i, s := range sources {
					d.Run(s)
					ref := referenceDist(pk, s)
					for v := int32(0); v < int32(n); v += 2 {
						want := d.Dist(v)
						if got := pk.MultiDist(i, v); got != want || ref[v] != want {
							t.Fatalf("k=%d lane %d src %d: packed dist(%d)=%d, reference %d, Dijkstra %d", k, i, s, v, got, ref[v], want)
						}
					}
				}
			}
		})
	}
}

// TestAddSatOverflowBoundary is the satellite property test for the
// saturating relaxation primitive every kernel now uses instead of
// per-arc uint64 widening: AddSat must equal min(a+b, Inf) over exact
// 64-bit arithmetic, with the generator biased toward the overflow
// boundary where the old widening code and a wrapping add disagree.
func TestAddSatOverflowBoundary(t *testing.T) {
	boundary := []uint32{0, 1, graph.MaxWeight, graph.MaxWeight - 1, graph.Inf / 2, graph.Inf - 1, graph.Inf}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			gen := func() uint32 {
				if rng.Intn(2) == 0 {
					return boundary[rng.Intn(len(boundary))]
				}
				return rng.Uint32()
			}
			vals[0] = reflect.ValueOf(gen())
			vals[1] = reflect.ValueOf(gen())
		},
	}
	prop := func(a, b uint32) bool {
		want := uint64(a) + uint64(b)
		if want > uint64(graph.Inf) {
			want = uint64(graph.Inf)
		}
		return graph.AddSat(a, b) == uint32(want)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSweepAboveInt32Boundary drives real trees whose labels exceed
// MaxInt32 (three chained MaxWeight arcs), the zone where a signed or
// widened intermediate in any kernel would corrupt labels.
func TestSweepAboveInt32Boundary(t *testing.T) {
	b := graph.NewBuilder(4)
	for i := int32(0); i < 3; i++ {
		b.MustAddArc(i, i+1, graph.MaxWeight)
	}
	g := b.Build()
	for _, mode := range allModes {
		e := packedEngine(t, g, mode, 1)
		e.Tree(0)
		for v := int32(0); v < 4; v++ {
			if got, want := e.Dist(v), uint32(v)*graph.MaxWeight; got != want {
				t.Fatalf("%s: dist(%d)=%d, want %d", mode, v, got, want)
			}
		}
	}
}

// TestBuildSeedsSortedAndMarksCleared checks the multi-tree kernel's
// seed contract: after buildSeeds the seed positions are strictly
// increasing, cover the whole upward search space, and every mark is
// back to false (the between-trees invariant the kernels rely on without
// ever touching the mark array themselves).
func TestBuildSeedsSortedAndMarksCleared(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, mode := range allModes {
		g := gridGraph(rng, 8, 8, 15)
		pk := packedEngine(t, g, mode, 1)
		pk.chSearch(int32(rng.Intn(g.NumVertices())), nil)
		touched := len(pk.touched)
		pk.buildSeeds()
		if len(pk.seedPos) != touched {
			t.Fatalf("%s: %d seeds from %d touched vertices", mode, len(pk.seedPos), touched)
		}
		for i := 1; i < len(pk.seedPos); i++ {
			if pk.seedPos[i-1] >= pk.seedPos[i] {
				t.Fatalf("%s: seedPos not strictly increasing at %d: %d >= %d", mode, i, pk.seedPos[i-1], pk.seedPos[i])
			}
		}
		n := int32(pk.s.n)
		for v := int32(0); v < n; v++ {
			if pk.mark[v] {
				t.Fatalf("%s: mark[%d] still set after buildSeeds", mode, v)
			}
		}
		// The engine must still compute correct trees afterwards.
		d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
		s := int32(rng.Intn(g.NumVertices()))
		pk.Tree(s)
		d.Run(s)
		for v := int32(0); v < n; v++ {
			if got, want := pk.Dist(v), d.Dist(v); got != want {
				t.Fatalf("%s src %d: dist(%d)=%d, want %d", mode, s, v, got, want)
			}
		}
	}
}

// TestSweepBytesPackedBelowLegacy pins the point of the packed stream:
// the modeled sweep traffic of the packed stream must be strictly below
// that of the legacy CSR+mark layout (bandwidth.SweepTraffic without a
// stream, plus the order array the legacy kernels read outside the
// reordered layout) for the same hierarchy, for k = 1 and 16.
func TestSweepBytesPackedBelowLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	g := gridGraph(rng, 12, 12, 20)
	for _, mode := range allModes {
		pk := packedEngine(t, g, mode, 1)
		for _, k := range []int{1, 16} {
			csr := bandwidth.SweepTraffic{N: pk.s.n, M: pk.s.downIn.NumArcs(), K: k}
			pb, lb := pk.SweepBytes(k), csr.Bytes()
			if pk.s.order != nil {
				lb += int64(pk.s.n) * 4
			}
			if pb <= 0 || lb <= 0 {
				t.Fatalf("%s k=%d: non-positive traffic model (%d, %d)", mode, k, pb, lb)
			}
			if pb >= lb {
				t.Fatalf("%s k=%d: packed traffic %d not below legacy %d", mode, k, pb, lb)
			}
		}
		if pk.SweepBytes(16) <= pk.SweepBytes(1) {
			t.Fatalf("%s: traffic model not k-aware", mode)
		}
	}
}

// TestPackedParallelStress interleaves packed parallel single- and
// multi-tree sweeps on clones of one hierarchy, for the race detector.
func TestPackedParallelStress(t *testing.T) {
	h, n := raceHierarchy(t)
	proto, err := NewEngine(h, Options{Workers: 4, ParallelGrain: DefaultParallelGrain})
	if err != nil {
		t.Fatal(err)
	}
	poolSplitsSweep(t, proto)
	done := make(chan error, 3)
	for c := 0; c < 3; c++ {
		go func(c int) {
			e := proto.Clone()
			rng := rand.New(rand.NewSource(int64(80 + c)))
			buf := make([]uint32, n)
			for q := 0; q < 3; q++ {
				s := int32(rng.Intn(n))
				e.TreeParallel(s)
				e.CopyDistances(buf)
				if buf[s] != 0 {
					done <- fmt.Errorf("clone %d: dist(source %d) = %d", c, s, buf[s])
					return
				}
				sources := []int32{s, int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
				e.MultiTreeParallel(sources, false)
				for i, src := range sources {
					e.CopyLaneDistances(i, buf)
					if buf[src] != 0 {
						done <- fmt.Errorf("clone %d lane %d: dist(source %d) = %d", c, i, src, buf[src])
						return
					}
				}
			}
			done <- nil
		}(c)
	}
	for c := 0; c < 3; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackedByteBudgetChunks runs the pooled sweep under a tiny
// explicit ChunkBytes budget — many small, uneven chunks with real
// cross-chunk dependencies — and checks labels against Dijkstra.
func TestPackedByteBudgetChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := gridGraph(rng, 20, 15, 40)
	n := g.NumVertices()
	h := ch.Build(g, ch.Options{Workers: 1})
	for _, budget := range []int{32, 256, 4096} {
		e, err := NewEngine(h, Options{Workers: 4, ChunkBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
		for q := 0; q < 3; q++ {
			s := int32(rng.Intn(n))
			e.TreeParallel(s)
			d.Run(s)
			for v := int32(0); v < int32(n); v++ {
				if got, want := e.Dist(v), d.Dist(v); got != want {
					t.Fatalf("budget %d src %d: dist(%d)=%d, want %d", budget, s, v, got, want)
				}
			}
		}
	}
}

// TestSweepBytesAccounting pins the stream accounting: StreamBytes is
// the packed stream's words in bytes, SweepBytes bills exactly that
// stream plus one word per vertex (the k=1 label prefill, the k=16
// block index) on top of the label traffic, and a pooled engine models
// the same traffic as a sequential one.
func TestSweepBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	g := gridGraph(rng, 12, 12, 30)
	pk := packedEngine(t, g, SweepReordered, 1)
	if got, want := pk.StreamBytes(), int64(pk.Packed().Words())*4; got <= 0 || got != want {
		t.Fatalf("StreamBytes %d, want the stream's %d bytes", got, want)
	}
	for _, k := range []int{1, 16} {
		labels := int64(k) * int64(4*pk.s.downIn.NumArcs()+4*pk.s.n) // tail reads + label writes
		perVertex := int64(4 * pk.s.n)
		if got := pk.SweepBytes(k); got != labels+pk.StreamBytes()+perVertex {
			t.Fatalf("SweepBytes(%d)=%d, want %d label bytes + %d stream bytes + %d prefill or index bytes",
				k, got, labels, pk.StreamBytes(), perVertex)
		}
	}
	pooled := packedEngine(t, g, SweepReordered, 4)
	if pooled.s.numChunks < 2 {
		t.Fatalf("pooled engine has %d chunks, want several", pooled.s.numChunks)
	}
	if pb, sb := pooled.SweepBytes(16), pk.SweepBytes(16); pb != sb {
		t.Fatalf("pooled SweepBytes(16)=%d, sequential %d: the model bills no scheduler traffic", pb, sb)
	}
}
