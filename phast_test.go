package phast_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"phast"
	"phast/internal/pq"
	"phast/internal/sssp"
)

func testNetwork(t testing.TB) *phast.RoadNetwork {
	t.Helper()
	net, err := phast.GenerateRoadNetwork(phast.RoadParams{Width: 24, Height: 20, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testEngine(t testing.TB, g *phast.Graph) *phast.Engine {
	t.Helper()
	e, err := phast.Preprocess(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEndToEndTreeMatchesDijkstra(t *testing.T) {
	net := testNetwork(t)
	g := net.Graph
	e := testEngine(t, g)
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		e.Tree(s)
		d.Run(s)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if e.Dist(v) != d.Dist(v) {
				t.Fatalf("dist(%d)=%d, want %d", v, e.Dist(v), d.Dist(v))
			}
		}
	}
}

func TestPublicSurface(t *testing.T) {
	net := testNetwork(t)
	g := net.Graph
	e := testEngine(t, g)
	if e.NumVertices() != g.NumVertices() || e.Graph() != g {
		t.Fatal("engine accessors broken")
	}
	if e.NumShortcuts() <= 0 || e.NumLevels() <= 1 {
		t.Fatalf("hierarchy stats: %d shortcuts, %d levels", e.NumShortcuts(), e.NumLevels())
	}
	sizes := e.LevelSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.NumVertices() {
		t.Fatal("level sizes do not sum to n")
	}

	e.Tree(3)
	buf := make([]uint32, g.NumVertices())
	e.Distances(buf)
	if buf[3] != 0 {
		t.Fatal("source label not zero")
	}
	e.TreeParallel(3)
	for v := range buf {
		if e.Dist(int32(v)) != buf[v] {
			t.Fatal("parallel tree differs from sequential")
		}
	}

	e.TreeWithParents(3)
	p := e.PathTo(int32(g.NumVertices() - 1))
	if len(p) > 0 && (p[0] != 3 || p[len(p)-1] != int32(g.NumVertices()-1)) {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	parents := make([]int32, g.NumVertices())
	e.TreeParents(parents)
	if parents[3] != -1 {
		t.Fatal("source has a tree parent")
	}

	// Point-to-point, with and without stall-on-demand.
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	d.Run(3)
	if got := e.Query(3, 40); got != d.Dist(40) {
		t.Fatalf("Query=%d, want %d", got, d.Dist(40))
	}
	e.EnableQueryStalling()
	if got := e.Query(3, 40); got != d.Dist(40) {
		t.Fatalf("stalling Query=%d, want %d", got, d.Dist(40))
	}
	qp := e.QueryPath(3, 40)
	if len(qp) == 0 || qp[0] != 3 || qp[len(qp)-1] != 40 {
		t.Fatalf("QueryPath endpoints: %v", qp)
	}

	// Multi-tree.
	e.MultiTree([]int32{1, 2, 3, 4})
	d.Run(2)
	for v := int32(0); v < int32(g.NumVertices()); v += 5 {
		if e.MultiDist(1, v) != d.Dist(v) {
			t.Fatal("MultiDist mismatch")
		}
	}
}

func TestCloneConcurrentUse(t *testing.T) {
	net := testNetwork(t)
	e := testEngine(t, net.Graph)
	n := net.Graph.NumVertices()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e.Clone()
			d := sssp.NewDijkstra(net.Graph, pq.KindBinaryHeap)
			for i := 0; i < 3; i++ {
				s := int32((w*31 + i*17) % n)
				c.Tree(s)
				d.Run(s)
				for v := int32(0); v < int32(n); v += 11 {
					if c.Dist(v) != d.Dist(v) {
						errs <- "clone computed wrong distances"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestGPUFacade(t *testing.T) {
	net := testNetwork(t)
	g := net.Graph
	e := testEngine(t, g)
	gpu, err := e.GPU(phast.GTX580(), 4)
	if err != nil {
		t.Fatal(err)
	}
	gpu.MultiTree([]int32{5, 6, 7, 8})
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	d.Run(7)
	for v := int32(0); v < int32(g.NumVertices()); v += 3 {
		if gpu.Dist(2, v) != d.Dist(v) {
			t.Fatalf("GPU dist mismatch at %d", v)
		}
	}
	if gpu.ModeledBatchTime() <= 0 || gpu.MemoryUsed() <= 0 {
		t.Fatal("GPU accounting empty")
	}
	if gpu.Stats().Kernels == 0 {
		t.Fatal("no kernels recorded")
	}
	if _, err := e.GPU(phast.GTX480(), 0); err == nil {
		t.Fatal("maxK=0 accepted")
	}
}

func TestGPUFleetFacade(t *testing.T) {
	net := testNetwork(t)
	g := net.Graph
	e := testEngine(t, g)
	fleet, err := e.GPUFleet([]phast.GPUSpec{phast.GTX580(), phast.GTX480()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Size() != 2 {
		t.Fatalf("size=%d", fleet.Size())
	}
	round := fleet.Round([][]int32{{1, 2}, {3, 4}})
	if round <= 0 {
		t.Fatal("no round time")
	}
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	d.Run(4)
	for v := int32(0); v < int32(g.NumVertices()); v += 9 {
		if fleet.Dist(1, 1, v) != d.Dist(v) {
			t.Fatalf("fleet dist wrong at %d", v)
		}
	}
	total := fleet.AllPairsModeledTime([]int32{0, 1, 2, 3, 4, 5}, 2, nil)
	if total <= 0 {
		t.Fatal("no all-pairs time")
	}
}

func TestApplicationsFacade(t *testing.T) {
	net, err := phast.GenerateRoadNetwork(phast.RoadParams{Width: 12, Height: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	e := testEngine(t, g)

	res := e.Diameter(nil)
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	d.Run(res.From)
	if d.Dist(res.To) != res.Diameter {
		t.Fatalf("diameter witness broken: %+v", res)
	}

	reaches := e.Reaches(nil)
	if len(reaches) != g.NumVertices() {
		t.Fatal("reaches length")
	}

	sources := []int32{0, 5, 9}
	bw := e.Betweenness(sources)
	if phast.UniqueShortestPaths(g, sources) {
		exact := phast.BetweennessExact(g, sources)
		for v := range bw {
			if diff := bw[v] - exact[v]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("betweenness mismatch at %d: %f vs %f", v, bw[v], exact[v])
			}
		}
	}

	af, err := phast.BuildArcFlags(g, &phast.ArcFlagsOptions{Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	if af.NumBoundary() == 0 || af.FlagDensity() <= 0 {
		t.Fatal("arc flags empty")
	}
	for trial := 0; trial < 10; trial++ {
		s, tt := int32(trial%g.NumVertices()), int32((trial*7)%g.NumVertices())
		got := af.Query(s, tt)
		d.Run(s)
		if got != d.Dist(tt) {
			t.Fatalf("arc flags query (%d,%d)=%d, want %d", s, tt, got, d.Dist(tt))
		}
		if af.Scanned() <= 0 {
			t.Fatal("scanned counter idle")
		}
	}
	if c := af.Cell(0); c < 0 || c >= 4 {
		t.Fatalf("cell out of range: %d", c)
	}

	// Dijkstra-based flags agree.
	afd, err := phast.BuildArcFlags(g, &phast.ArcFlagsOptions{Cells: 4, UseDijkstra: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := afd.Query(1, 8), af.Query(1, 8); got != want {
		t.Fatalf("flag providers disagree: %d vs %d", got, want)
	}

	// Bidirectional flags are exact too (both providers).
	for _, useDij := range []bool{false, true} {
		bi, err := phast.BuildArcFlags(g, &phast.ArcFlagsOptions{
			Cells: 4, Bidirectional: true, UseDijkstra: useDij,
		})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			s, tt := int32((trial*3)%g.NumVertices()), int32((trial*11)%g.NumVertices())
			got := bi.Query(s, tt)
			d.Run(s)
			if got != d.Dist(tt) {
				t.Fatalf("bidi flags (dij=%v) query (%d,%d)=%d, want %d",
					useDij, s, tt, got, d.Dist(tt))
			}
		}
		if bi.Scanned() < 0 {
			t.Fatal("scanned negative")
		}
	}

	// Approximate betweenness: full sample equals exact.
	if phast.UniqueShortestPaths(g, nil) {
		full := e.BetweennessApprox(g.NumVertices(), 3)
		exact := e.Betweenness(nil)
		for v := range full {
			if diff := full[v] - exact[v]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("approx full sample differs at %d", v)
			}
		}
	}
}

func TestDIMACSFacade(t *testing.T) {
	net := testNetwork(t)
	var buf bytes.Buffer
	if err := phast.WriteDIMACS(&buf, net.Graph, "facade round trip"); err != nil {
		t.Fatal(err)
	}
	back, err := phast.ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(net.Graph) {
		t.Fatal("DIMACS facade round trip changed the graph")
	}
}

func TestBuilderFacade(t *testing.T) {
	b := phast.NewBuilder(3)
	b.MustAddArc(0, 1, 7)
	g := b.Build()
	if g.NumArcs() != 1 {
		t.Fatal("builder facade broken")
	}
	g2, err := phast.FromArcs(2, [][3]int64{{0, 1, 3}})
	if err != nil || g2.NumArcs() != 1 {
		t.Fatal("FromArcs facade broken")
	}
	e := testEngine(t, g2)
	e.Tree(0)
	if e.Dist(1) != 3 || e.Dist(0) != 0 {
		t.Fatal("tiny graph distances wrong")
	}
	if e.Dist(1) == phast.Inf {
		t.Fatal("Inf constant mismatch")
	}
}

func TestSaveLoadHierarchy(t *testing.T) {
	net := testNetwork(t)
	e := testEngine(t, net.Graph)
	var buf bytes.Buffer
	if err := e.SaveHierarchy(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := phast.LoadEngine(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != e.NumVertices() || loaded.NumShortcuts() != e.NumShortcuts() {
		t.Fatal("loaded engine differs")
	}
	e.Tree(9)
	loaded.Tree(9)
	for v := int32(0); v < int32(e.NumVertices()); v += 7 {
		if loaded.Dist(v) != e.Dist(v) {
			t.Fatalf("loaded engine wrong at %d", v)
		}
	}
	if got, want := loaded.Query(3, 77), e.Query(3, 77); got != want {
		t.Fatalf("loaded query %d, want %d", got, want)
	}
	if _, err := phast.LoadEngine(bytes.NewReader([]byte("junk")), nil); err == nil {
		t.Fatal("junk hierarchy accepted")
	}
}

func TestTargetSelectionFacade(t *testing.T) {
	net := testNetwork(t)
	g := net.Graph
	e := testEngine(t, g)
	targets := []int32{4, 40, 99}
	sel, err := e.SelectTargets(targets)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size() <= 0 || sel.Size() > g.NumVertices() {
		t.Fatalf("selection size %d", sel.Size())
	}
	q := sel.NewQuery()
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	for _, s := range []int32{0, 150, 7} {
		q.Run(s)
		d.Run(s)
		for i, tgt := range targets {
			if q.Dist(i) != d.Dist(tgt) {
				t.Fatalf("one-to-many (%d->%d): %d, want %d", s, tgt, q.Dist(i), d.Dist(tgt))
			}
		}
	}
	tab := sel.Table([]int32{1, 2})
	d.Run(2)
	if tab[1][2] != d.Dist(targets[2]) {
		t.Fatal("table wrong")
	}
	if _, err := e.SelectTargets(nil); err == nil {
		t.Fatal("empty targets accepted")
	}
}

func TestOneWayNetworkEndToEnd(t *testing.T) {
	// Asymmetric graphs (one-way streets) must work through the whole
	// pipeline: CH, PHAST trees, point-to-point queries.
	net, err := phast.GenerateRoadNetwork(phast.RoadParams{
		Width: 18, Height: 16, Seed: 77, OneWayProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	e := testEngine(t, g)
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	for _, s := range []int32{0, int32(g.NumVertices() / 2)} {
		e.Tree(s)
		d.Run(s)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if e.Dist(v) != d.Dist(v) {
				t.Fatalf("one-way: dist(%d)=%d, want %d", v, e.Dist(v), d.Dist(v))
			}
		}
	}
	// Asymmetry should be observable: some pair with d(s,t) != d(t,s).
	asym := false
	for trial := 0; trial < 50 && !asym; trial++ {
		s, tt := int32(trial%g.NumVertices()), int32((trial*13+1)%g.NumVertices())
		if e.Query(s, tt) != e.Query(tt, s) {
			asym = true
		}
	}
	if !asym {
		t.Log("no asymmetric pair sampled (possible but unlikely); weights may still be symmetric")
	}
}

func TestPresetFacade(t *testing.T) {
	net, err := phast.GenerateRoadNetworkPreset(phast.EuropeXS, phast.TravelTime)
	if err != nil {
		t.Fatal(err)
	}
	if net.Graph.NumVertices() < 1000 {
		t.Fatal("preset too small")
	}
	if _, err := phast.GenerateRoadNetworkPreset("bogus", phast.TravelDistance); err == nil {
		t.Fatal("bogus preset accepted")
	}
}

// TestServeFacade drives the public serving layer end to end: Serve a
// preprocessed engine, mix Query and QueryMany from several goroutines,
// verify every tree against Dijkstra, and close cleanly.
func TestServeFacade(t *testing.T) {
	net := testNetwork(t)
	g := net.Graph
	e := testEngine(t, g)
	srv, err := e.Serve(&phast.ServeOptions{MaxBatch: 8, Engines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n := g.NumVertices()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
			for q := 0; q < 10; q++ {
				s := int32(rng.Intn(n))
				res, err := srv.Query(nil, s)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				d.Run(s)
				for v := int32(0); v < int32(n); v += 5 {
					if res.Dist(v) != d.Dist(v) {
						t.Errorf("src %d: dist(%d)=%d, want %d", s, v, res.Dist(v), d.Dist(v))
						res.Release()
						return
					}
				}
				res.Release()
			}
		}(w)
	}
	wg.Wait()
	// The engine's own cursor stays usable beside the server.
	e.Tree(0)
	if e.Dist(0) != 0 {
		t.Fatal("engine cursor broken while serving")
	}
	results, err := srv.QueryMany(nil, []int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, n)
	for _, res := range results {
		e.Tree(res.Source())
		e.CopyDistances(buf)
		for v := range buf {
			if res.Dist(int32(v)) != buf[v] {
				t.Fatalf("QueryMany src %d mismatch at %d", res.Source(), v)
			}
		}
		res.Release()
	}
	st := srv.Stats()
	if st.Queries < 43 {
		t.Fatalf("Stats().Queries=%d, want ≥43", st.Queries)
	}
	srv.Close()
	if _, err := srv.Query(nil, 0); err != phast.ErrServerClosed {
		t.Fatalf("closed server returned %v", err)
	}
}
