package core

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

func gridGraph(rng *rand.Rand, w, h, maxW int) *graph.Graph {
	b := graph.NewBuilder(w * h)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				wt := uint32(1 + rng.Intn(maxW))
				b.MustAddArc(id(x, y), id(x+1, y), wt)
				b.MustAddArc(id(x+1, y), id(x, y), wt)
			}
			if y+1 < h {
				wt := uint32(1 + rng.Intn(maxW))
				b.MustAddArc(id(x, y), id(x, y+1), wt)
				b.MustAddArc(id(x, y+1), id(x, y), wt)
			}
		}
	}
	return b.Build()
}

func randomGraph(rng *rand.Rand, n, m, maxW int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.MustAddArc(int32(rng.Intn(n)), int32(rng.Intn(n)), uint32(1+rng.Intn(maxW)))
	}
	return b.Build()
}

func newEngine(t *testing.T, g *graph.Graph, opt Options) *Engine {
	t.Helper()
	h := ch.Build(g, ch.Options{Workers: 1})
	e, err := NewEngine(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var allModes = []SweepMode{SweepReordered, SweepLevelOrder, SweepRankOrder}

func TestTreeMatchesDijkstraAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				var g *graph.Graph
				if trial%2 == 0 {
					n := 2 + rng.Intn(50)
					g = randomGraph(rng, n, rng.Intn(5*n), 25)
				} else {
					g = gridGraph(rng, 4+rng.Intn(8), 4+rng.Intn(8), 30)
				}
				n := g.NumVertices()
				e := newEngine(t, g, Options{Mode: mode})
				d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
				for q := 0; q < 6; q++ {
					s := int32(rng.Intn(n))
					e.Tree(s)
					d.Run(s)
					ref := referenceDist(e, s)
					for v := int32(0); v < int32(n); v++ {
						if got, want := e.Dist(v), d.Dist(v); got != want || ref[v] != want {
							t.Fatalf("trial %d src %d: dist(%d)=%d, reference %d, want %d", trial, s, v, got, ref[v], want)
						}
					}
				}
			}
		})
	}
}

// TestImplicitInitAcrossManyTrees drives one engine across many sources
// including sources whose trees reach disjoint regions, which is exactly
// where stale labels from skipped initialization would surface.
func TestImplicitInitAcrossManyTrees(t *testing.T) {
	// Two disconnected grids glued into one vertex set.
	rng := rand.New(rand.NewSource(2))
	b := graph.NewBuilder(50)
	// component A: 0..24 (5x5 grid)
	id := func(base, x, y int) int32 { return int32(base + y*5 + x) }
	for _, base := range []int{0, 25} {
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				if x+1 < 5 {
					w := uint32(1 + rng.Intn(9))
					b.MustAddArc(id(base, x, y), id(base, x+1, y), w)
					b.MustAddArc(id(base, x+1, y), id(base, x, y), w)
				}
				if y+1 < 5 {
					w := uint32(1 + rng.Intn(9))
					b.MustAddArc(id(base, x, y), id(base, x, y+1), w)
					b.MustAddArc(id(base, x, y+1), id(base, x, y), w)
				}
			}
		}
	}
	g := b.Build()
	e := newEngine(t, g, Options{})
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	sources := []int32{0, 30, 7, 49, 12, 25, 0, 44}
	for _, s := range sources {
		e.Tree(s)
		d.Run(s)
		for v := int32(0); v < 50; v++ {
			if got, want := e.Dist(v), d.Dist(v); got != want {
				t.Fatalf("src %d: dist(%d)=%d, want %d (stale label?)", s, v, got, want)
			}
		}
	}
}

func TestTreeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gridGraph(rng, 15, 14, 40)
	for _, mode := range allModes {
		h := ch.Build(g, ch.Options{Workers: 1})
		e, err := NewEngine(h, Options{Mode: mode, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewEngine(h, Options{Mode: mode, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 5; q++ {
			s := int32(rng.Intn(g.NumVertices()))
			e.TreeParallel(s)
			seq.Tree(s)
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				if e.Dist(v) != seq.Dist(v) {
					t.Fatalf("mode %v src %d: parallel dist(%d)=%d, sequential %d",
						mode, s, v, e.Dist(v), seq.Dist(v))
				}
			}
		}
	}
}

func TestParallelSmallLevelsThreshold(t *testing.T) {
	// A graph smaller than one scheduler chunk (DefaultParallelGrain)
	// exercises the sequential fallback inside the parallel sweep.
	rng := rand.New(rand.NewSource(4))
	g := gridGraph(rng, 6, 6, 10)
	e := newEngine(t, g, Options{Workers: 8})
	d := sssp.NewDijkstra(g, pq.KindDial)
	s := int32(17)
	e.TreeParallel(s)
	d.Run(s)
	for v := int32(0); v < 36; v++ {
		if e.Dist(v) != d.Dist(v) {
			t.Fatalf("dist(%d)=%d, want %d", v, e.Dist(v), d.Dist(v))
		}
	}
}

func TestMultiTreeMatchesSingleTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gridGraph(rng, 9, 8, 30)
	n := g.NumVertices()
	for _, mode := range allModes {
		e := newEngine(t, g, Options{Mode: mode})
		single := e.Clone()
		for _, k := range []int{1, 2, 3, 5, 8} {
			sources := make([]int32, k)
			for i := range sources {
				sources[i] = int32(rng.Intn(n))
			}
			e.MultiTree(sources, false)
			if e.K() != k {
				t.Fatalf("K()=%d, want %d", e.K(), k)
			}
			for i, s := range sources {
				single.Tree(s)
				for v := int32(0); v < int32(n); v++ {
					if got, want := e.MultiDist(i, v), single.Dist(v); got != want {
						t.Fatalf("mode %v k=%d tree %d (src %d): dist(%d)=%d, want %d",
							mode, k, i, s, v, got, want)
					}
				}
			}
		}
	}
}

// TestMultiTreeLanesMatchesScalar pins that useLanes selects nothing:
// every engine relaxes k trees with the register kernel of
// multi_relax.go either way.
func TestMultiTreeLanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gridGraph(rng, 10, 9, 35)
	n := g.NumVertices()
	e := newEngine(t, g, Options{})
	scalar := e.Clone()
	for _, k := range []int{4, 8, 16} {
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		e.MultiTree(sources, true)
		scalar.MultiTree(sources, false)
		for i := 0; i < k; i++ {
			for v := int32(0); v < int32(n); v++ {
				if e.MultiDist(i, v) != scalar.MultiDist(i, v) {
					t.Fatalf("k=%d lane %d: lanes=%d scalar=%d at v=%d",
						k, i, e.MultiDist(i, v), scalar.MultiDist(i, v), v)
				}
			}
		}
	}
}

// TestMultiTreeLaneValidation checks that useLanes puts no constraint
// on k: a k=3 batch with useLanes set matches the Section III reference
// sweep.
func TestMultiTreeLaneValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gridGraph(rng, 4, 4, 5)
	e := newEngine(t, g, Options{})
	sources := []int32{0, 1, 2}
	e.MultiTree(sources, true)
	for i, s := range sources {
		ref := referenceDist(e, s)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if got := e.MultiDist(i, v); got != ref[v] {
				t.Fatalf("lane %d: dist(%d)=%d, reference %d", i, v, got, ref[v])
			}
		}
	}
}

func TestMultiTreeRepeatedAndShrinkingK(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := gridGraph(rng, 7, 7, 20)
	n := g.NumVertices()
	e := newEngine(t, g, Options{})
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	for _, k := range []int{8, 4, 8, 2, 1} {
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		e.MultiTree(sources, false)
		for i, s := range sources {
			d.Run(s)
			for v := int32(0); v < int32(n); v++ {
				if got, want := e.MultiDist(i, v), d.Dist(v); got != want {
					t.Fatalf("k=%d tree %d: dist(%d)=%d, want %d", k, i, v, got, want)
				}
			}
		}
	}
	e.MultiTree(nil, false)
	if e.K() != 0 {
		t.Fatal("empty MultiTree should clear K")
	}
}

func TestMultiTreeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := gridGraph(rng, 14, 12, 30)
	h := ch.Build(g, ch.Options{Workers: 1})
	par, err := NewEngine(h, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewEngine(h, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, k := range []int{1, 4, 7} {
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		par.MultiTreeParallel(sources, false)
		seq.MultiTree(sources, false)
		for i := 0; i < k; i++ {
			for v := int32(0); v < int32(n); v++ {
				if par.MultiDist(i, v) != seq.MultiDist(i, v) {
					t.Fatalf("k=%d lane %d: parallel %d != sequential %d at %d",
						k, i, par.MultiDist(i, v), seq.MultiDist(i, v), v)
				}
			}
		}
	}
	// Workers=1 falls back to the sequential path.
	seq.MultiTreeParallel([]int32{3, 5}, false)
	if seq.K() != 2 {
		t.Fatal("fallback path broken")
	}
	par.MultiTreeParallel(nil, false)
	if par.K() != 0 {
		t.Fatal("empty batch should clear K")
	}
}

func TestTreeWithParentsPathsAreTight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gridGraph(rng, 8, 8, 25)
	n := g.NumVertices()
	for _, mode := range allModes {
		e := newEngine(t, g, Options{Mode: mode})
		for q := 0; q < 4; q++ {
			s := int32(rng.Intn(n))
			e.TreeWithParents(s)
			for v := int32(0); v < int32(n); v += 3 {
				want := e.Dist(v)
				path := e.PathTo(v)
				if want == graph.Inf {
					if path != nil {
						t.Fatalf("path to unreached vertex %d", v)
					}
					continue
				}
				if path[0] != s || path[len(path)-1] != v {
					t.Fatalf("mode %v: path endpoints %v (s=%d v=%d)", mode, path, s, v)
				}
				var sum uint32
				for i := 1; i < len(path); i++ {
					w, ok := g.FindArc(path[i-1], path[i])
					if !ok {
						t.Fatalf("mode %v: path uses non-arc (%d,%d)", mode, path[i-1], path[i])
					}
					sum += w
				}
				if sum != want {
					t.Fatalf("mode %v: path length %d != dist %d", mode, sum, want)
				}
			}
		}
	}
}

func TestParentGPlusConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := gridGraph(rng, 7, 6, 15)
	e := newEngine(t, g, Options{})
	s := int32(11)
	e.TreeWithParents(s)
	if e.ParentGPlus(s) != -1 {
		t.Fatal("source has a parent")
	}
	// Every reached non-source vertex has a parent whose distance is
	// strictly smaller (positive weights).
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if v == s || e.Dist(v) == graph.Inf {
			continue
		}
		p := e.ParentGPlus(v)
		if p < 0 {
			t.Fatalf("reached vertex %d has no parent", v)
		}
		if e.Dist(p) >= e.Dist(v) {
			t.Fatalf("parent %d of %d not closer: %d vs %d", p, v, e.Dist(p), e.Dist(v))
		}
	}
}

func TestGTreeParents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gridGraph(rng, 8, 7, 20)
	n := g.NumVertices()
	e := newEngine(t, g, Options{})
	s := int32(13)
	e.Tree(s)
	parents := make([]int32, n)
	e.GTreeParents(parents)
	if parents[s] != -1 {
		t.Fatal("source has a G-tree parent")
	}
	for v := int32(0); v < int32(n); v++ {
		if v == s {
			continue
		}
		if e.Dist(v) == graph.Inf {
			if parents[v] != -1 {
				t.Fatalf("unreached vertex %d has parent", v)
			}
			continue
		}
		p := parents[v]
		if p < 0 {
			t.Fatalf("reached vertex %d has no G-tree parent", v)
		}
		w, ok := g.FindArc(p, v)
		if !ok {
			t.Fatalf("G-tree parent arc (%d,%d) not in G", p, v)
		}
		if e.Dist(p)+w != e.Dist(v) {
			t.Fatalf("G-tree identity violated at %d: %d + %d != %d", v, e.Dist(p), w, e.Dist(v))
		}
	}
}

func TestTreeWithoutParentsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gridGraph(rng, 4, 4, 5)
	e := newEngine(t, g, Options{})
	e.Tree(0)
	defer func() {
		if recover() == nil {
			t.Fatal("PathTo after plain Tree should panic")
		}
	}()
	e.PathTo(5)
}

func TestCopyDistancesAndAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := gridGraph(rng, 5, 5, 10)
	e := newEngine(t, g, Options{})
	if e.Source() != -1 {
		t.Fatal("fresh engine has a source")
	}
	e.Tree(7)
	if e.Source() != 7 {
		t.Fatalf("Source()=%d, want 7", e.Source())
	}
	buf := make([]uint32, g.NumVertices())
	e.CopyDistances(buf)
	for v := range buf {
		if buf[v] != e.Dist(int32(v)) {
			t.Fatalf("CopyDistances mismatch at %d", v)
		}
	}
	if e.NumVertices() != 25 {
		t.Fatalf("NumVertices=%d", e.NumVertices())
	}
	if e.Mode() != SweepReordered {
		t.Fatalf("Mode=%v", e.Mode())
	}
	// ID mappings are mutually inverse.
	for v := int32(0); v < 25; v++ {
		if e.OrigID(e.EngineID(v)) != v {
			t.Fatalf("ID mapping broken at %d", v)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := gridGraph(rng, 6, 6, 12)
	e := newEngine(t, g, Options{})
	c := e.Clone()
	e.Tree(0)
	c.Tree(35)
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	d.Run(0)
	for v := int32(0); v < 36; v++ {
		if e.Dist(v) != d.Dist(v) {
			t.Fatalf("clone corrupted original engine at %d", v)
		}
	}
	d.Run(35)
	for v := int32(0); v < 36; v++ {
		if c.Dist(v) != d.Dist(v) {
			t.Fatalf("clone wrong at %d", v)
		}
	}
}

func TestLevelRangesCoverAllVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := gridGraph(rng, 9, 9, 14)
	e := newEngine(t, g, Options{})
	total := int32(0)
	prevEnd := int32(0)
	for _, r := range e.LevelRanges() {
		if r[0] != prevEnd {
			t.Fatalf("ranges not contiguous: %v", e.LevelRanges())
		}
		total += r[1] - r[0]
		prevEnd = r[1]
	}
	if total != int32(g.NumVertices()) {
		t.Fatalf("ranges cover %d vertices, want %d", total, g.NumVertices())
	}
}

func TestSweepModeString(t *testing.T) {
	if SweepReordered.String() != "reordered" ||
		SweepLevelOrder.String() != "level order" ||
		SweepRankOrder.String() != "rank order" {
		t.Fatal("SweepMode strings wrong")
	}
	if SweepMode(99).String() == "" {
		t.Fatal("unknown mode has empty string")
	}
}

func TestNewEngineUnknownMode(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := gridGraph(rng, 3, 3, 5)
	h := ch.Build(g, ch.Options{Workers: 1})
	if _, err := NewEngine(h, Options{Mode: SweepMode(42)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
