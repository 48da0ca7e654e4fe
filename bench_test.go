// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded results). Each BenchmarkTableN_* / BenchmarkFig1_* /
// BenchmarkLowerBound_* / BenchmarkApps_* target exercises exactly the
// code path behind the corresponding rows; `go run ./cmd/experiments`
// prints the full formatted tables.
package phast_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"phast/internal/arcflags"
	"phast/internal/bandwidth"
	"phast/internal/centrality"
	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/diameter"
	"phast/internal/gphast"
	"phast/internal/graph"
	"phast/internal/layout"
	"phast/internal/machine"
	"phast/internal/partition"
	"phast/internal/pq"
	"phast/internal/roadnet"
	"phast/internal/rphast"
	"phast/internal/simt"
	"phast/internal/sssp"
)

// fixture holds the shared benchmark instance: the europe-xs network in
// DFS layout with its hierarchy, plus a travel-distance twin for Table
// VII. Built once; benchmarks must not mutate it.
type fixture struct {
	g       *graph.Graph // DFS layout, travel times
	h       *ch.Hierarchy
	gDist   *graph.Graph // travel distances
	hDist   *ch.Hierarchy
	sources []int32
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		build := func(metric roadnet.Metric) (*graph.Graph, *ch.Hierarchy) {
			net, err := roadnet.GeneratePreset(roadnet.PresetEuropeXS, metric)
			if err != nil {
				panic(err)
			}
			perm := layout.DFS(net.Graph, 0)
			g, err := net.Graph.Permute(perm)
			if err != nil {
				panic(err)
			}
			return g, ch.Build(g, ch.Options{})
		}
		f := &fixture{}
		f.g, f.h = build(roadnet.TravelTime)
		f.gDist, f.hDist = build(roadnet.TravelDistance)
		rng := rand.New(rand.NewSource(7))
		f.sources = make([]int32, 64)
		for i := range f.sources {
			f.sources[i] = int32(rng.Intn(f.g.NumVertices()))
		}
		fix = f
	})
	return fix
}

func (f *fixture) src(i int) int32 { return f.sources[i%len(f.sources)] }

func (f *fixture) engine(b *testing.B, mode core.SweepMode, workers int) *core.Engine {
	b.Helper()
	return f.engineOpts(b, core.Options{Mode: mode, Workers: workers})
}

func (f *fixture) engineOpts(b *testing.B, opt core.Options) *core.Engine {
	b.Helper()
	e, err := core.NewEngine(f.h, opt)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// reportSweepGBps attaches the modeled achieved bandwidth of the sweep:
// the engine's bytes-touched model for its packed sweep stream (k-lane
// aware) divided by wall time. The wall time
// includes the upward CH search, so the figure is conservative.
func reportSweepGBps(b *testing.B, e *core.Engine, k int) {
	b.ReportMetric(bandwidth.GBps(e.SweepBytes(k)*int64(b.N), b.Elapsed()), "modeled-GB/s")
}

// ---- Figure 1: the CH hierarchy itself --------------------------------

func BenchmarkFig1_CHPreprocessing(b *testing.B) {
	f := getFixture(b)
	for i := 0; i < b.N; i++ {
		h := ch.Build(f.g, ch.Options{})
		if len(h.LevelSizes()) < 10 {
			b.Fatal("hierarchy suspiciously flat")
		}
	}
}

// ---- Table I: single tree, all algorithms -----------------------------

func benchDijkstra(b *testing.B, kind pq.Kind) {
	f := getFixture(b)
	d := sssp.NewDijkstra(f.g, kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(f.src(i))
	}
}

func BenchmarkTable1_DijkstraBinaryHeap(b *testing.B) { benchDijkstra(b, pq.KindBinaryHeap) }
func BenchmarkTable1_DijkstraDial(b *testing.B)       { benchDijkstra(b, pq.KindDial) }
func BenchmarkTable1_DijkstraSmartQueue(b *testing.B) { benchDijkstra(b, pq.KindRadix) }

func BenchmarkTable1_BFS(b *testing.B) {
	f := getFixture(b)
	bf := sssp.NewBFS(f.g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Run(f.src(i))
	}
}

func BenchmarkTable1_PHASTRankOrder(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepRankOrder, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tree(f.src(i))
	}
	reportSweepGBps(b, e, 1)
}

func BenchmarkTable1_PHASTLevelOrder(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepLevelOrder, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tree(f.src(i))
	}
	reportSweepGBps(b, e, 1)
}

func BenchmarkTable1_PHASTReordered(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tree(f.src(i))
	}
	reportSweepGBps(b, e, 1)
}

func BenchmarkTable1_PHASTReorderedParallel(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TreeParallel(f.src(i))
	}
	reportSweepGBps(b, e, 1)
}

// ---- Table II: multiple trees per sweep -------------------------------

func benchMultiTree(b *testing.B, k int) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	batch := make([]int32, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = f.src(i*k + j)
		}
		e.MultiTree(batch, false)
	}
	// report per-tree cost: one op grows k trees
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/tree")
	reportSweepGBps(b, e, k)
}

func BenchmarkTable2_MultiTree_k4(b *testing.B)  { benchMultiTree(b, 4) }
func BenchmarkTable2_MultiTree_k8(b *testing.B)  { benchMultiTree(b, 8) }
func BenchmarkTable2_MultiTree_k16(b *testing.B) { benchMultiTree(b, 16) }

// ---- Table III: GPHAST on the simulated GTX 580 -----------------------

func benchGPHAST(b *testing.B, k int) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	ge, err := gphast.NewEngine(e, simt.NewDevice(simt.GTX580()), k)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]int32, k)
	var modeled float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = f.src(i*k + j)
		}
		ge.MultiTree(batch)
		modeled += ge.LastBatchModeledTime().Seconds()
	}
	b.ReportMetric(modeled/float64(b.N*k)*1e9, "modeled-ns/tree")
}

func BenchmarkTable3_GPHAST_k1(b *testing.B)  { benchGPHAST(b, 1) }
func BenchmarkTable3_GPHAST_k4(b *testing.B)  { benchGPHAST(b, 4) }
func BenchmarkTable3_GPHAST_k16(b *testing.B) { benchGPHAST(b, 16) }

// ---- Table IV/V: the machine model ------------------------------------

func BenchmarkTable4_MachineCatalogue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(machine.Catalogue()) != 5 {
			b.Fatal("catalogue broken")
		}
	}
}

func BenchmarkTable5_ArchitectureProjection(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	ref := machine.Reference()
	cat := machine.Catalogue()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tree(f.src(i))        // the measured anchor...
		for _, m := range cat { // ...projected onto every machine
			s := machine.Scale(time.Millisecond, ref, m, machine.BandwidthBound)
			machine.ScaleParallel(s, m, m.Cores, true, machine.BandwidthBound)
		}
	}
}

// ---- Table VI: best configurations and energy -------------------------

func BenchmarkTable6_PHASTBestConfig(b *testing.B) {
	// The winning CPU configuration: 16 trees per sweep.
	benchMultiTree(b, 16)
}

func BenchmarkTable6_EnergyModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if machine.EnergyJoules(375, 1e6) <= 0 {
			b.Fatal("energy model broken")
		}
	}
}

// ---- Table VII: other inputs (distance metric) ------------------------

func BenchmarkTable7_PHASTDistanceMetric(b *testing.B) {
	f := getFixture(b)
	e, err := core.NewEngine(f.hDist, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tree(f.src(i) % int32(f.gDist.NumVertices()))
	}
}

func BenchmarkTable7_DijkstraDistanceMetric(b *testing.B) {
	f := getFixture(b)
	d := sssp.NewDijkstra(f.gDist, pq.KindDial)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(f.src(i) % int32(f.gDist.NumVertices()))
	}
}

// ---- Section VIII-B: memory lower bounds ------------------------------

func BenchmarkLowerBound_SequentialStream(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	dist := make([]uint32, f.g.NumVertices())
	b.ResetTimer()
	bandwidth.Sequential(e.Hierarchy().DownIn, dist, b.N)
}

func BenchmarkLowerBound_VertexLoopTraversal(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	dist := make([]uint32, f.g.NumVertices())
	b.ResetTimer()
	bandwidth.Traversal(e.Hierarchy().DownIn, dist, b.N)
}

// ---- Section VII-B applications ----------------------------------------

func BenchmarkApps_ArcFlagsPHASTTrees(b *testing.B) {
	f := getFixture(b)
	cells, err := partition.Cells(f.g, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	rev, err := arcflags.NewReverseEngine(f.g, ch.Options{}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tree := arcflags.PHASTReverseTrees(rev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arcflags.Compute(f.g, cells, 8, tree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApps_ArcFlagsDijkstraTrees(b *testing.B) {
	f := getFixture(b)
	cells, err := partition.Cells(f.g, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	tree := arcflags.DijkstraReverseTrees(f.g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arcflags.Compute(f.g, cells, 8, tree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApps_DiameterCPU(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diameter.CPU(e, f.sources[:16])
	}
}

func BenchmarkApps_ReachSampled(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centrality.Reaches(f.g, e, f.sources[:4])
	}
}

func BenchmarkApps_BetweennessPHAST(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centrality.BetweennessPHAST(f.g, e, f.sources[:4])
	}
}

func BenchmarkApps_BetweennessDijkstra(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centrality.BetweennessDijkstra(f.g, f.sources[:4])
	}
}

// ---- Point-to-point baseline (Section II-B) ---------------------------

func BenchmarkCHQuery(b *testing.B) {
	f := getFixture(b)
	q := ch.NewQuery(f.h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Distance(f.src(i), f.src(i+13))
	}
}

// ---- Extensions: RPHAST, bidirectional flags, GPU fleet, serialization --

func BenchmarkRPHAST_Select64(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	targets := f.sources[:64]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rphast.NewSelection(e, targets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPHAST_Query64(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	sel, err := rphast.NewSelection(e, f.sources[:64])
	if err != nil {
		b.Fatal(err)
	}
	q := rphast.NewQuery(sel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Run(f.src(i))
	}
}

func BenchmarkApps_BidirectionalFlagsQuery(b *testing.B) {
	f := getFixture(b)
	cells, err := partition.Cells(f.g, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	rev, err := arcflags.NewReverseEngine(f.g, ch.Options{}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fwd := f.engine(b, core.SweepReordered, 1)
	bi, err := arcflags.ComputeBidirectional(f.g, cells, 8,
		arcflags.PHASTReverseTrees(rev), arcflags.PHASTForwardTrees(fwd))
	if err != nil {
		b.Fatal(err)
	}
	q := arcflags.NewBiQuery(bi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Distance(f.src(i), f.src(i+7))
	}
}

func BenchmarkGPHAST_Fleet2(b *testing.B) {
	f := getFixture(b)
	e := f.engine(b, core.SweepReordered, 1)
	fleet, err := gphast.NewFleet(e, []simt.DeviceSpec{simt.GTX580(), simt.GTX580()}, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet.MultiTreeRound([][]int32{
			{f.src(i), f.src(i + 1), f.src(i + 2), f.src(i + 3)},
			{f.src(i + 4), f.src(i + 5), f.src(i + 6), f.src(i + 7)},
		})
	}
}

func BenchmarkHierarchySerialization(b *testing.B) {
	f := getFixture(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ch.WriteHierarchy(&buf, f.h); err != nil {
			b.Fatal(err)
		}
		if _, err := ch.ReadHierarchy(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// ---- Ablation: the priority function's level term ----------------------

func BenchmarkAblation_CHPriorityEDOnly(b *testing.B) {
	f := getFixture(b)
	for i := 0; i < b.N; i++ {
		ch.Build(f.g, ch.Options{Priority: &ch.PriorityWeights{ED: 1}})
	}
}
