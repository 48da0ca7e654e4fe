package gphast

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/roadnet"
	"phast/internal/simt"
	"phast/internal/sssp"
)

func testSetup(t *testing.T, maxK int) (*graph.Graph, *Engine) {
	t.Helper()
	net, err := roadnet.Generate(roadnet.Params{Width: 28, Height: 24, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	h := ch.Build(net.Graph, ch.Options{Workers: 1})
	ce, err := core.NewEngine(h, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ce, simt.NewDevice(simt.GTX580()), maxK)
	if err != nil {
		t.Fatal(err)
	}
	return net.Graph, e
}

func TestTreeMatchesDijkstra(t *testing.T) {
	g, e := testSetup(t, 1)
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	rng := rand.New(rand.NewSource(1))
	n := int32(g.NumVertices())
	for trial := 0; trial < 5; trial++ {
		s := int32(rng.Intn(int(n)))
		e.Tree(s)
		d.Run(s)
		for v := int32(0); v < n; v++ {
			if got, want := e.Dist(0, v), d.Dist(v); got != want {
				t.Fatalf("trial %d src %d: dist(%d)=%d, want %d", trial, s, v, got, want)
			}
		}
	}
}

func TestMultiTreeMatchesDijkstra(t *testing.T) {
	g, e := testSetup(t, 8)
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	rng := rand.New(rand.NewSource(2))
	n := int32(g.NumVertices())
	for _, k := range []int{2, 8, 3} {
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(int(n)))
		}
		e.MultiTree(sources)
		if e.K() != k {
			t.Fatalf("K=%d, want %d", e.K(), k)
		}
		for lane, s := range sources {
			d.Run(s)
			for v := int32(0); v < n; v++ {
				if got, want := e.Dist(lane, v), d.Dist(v); got != want {
					t.Fatalf("k=%d lane %d src %d: dist(%d)=%d, want %d", k, lane, s, v, got, want)
				}
			}
		}
	}
}

func TestRepeatedTreesNoStaleState(t *testing.T) {
	// Device labels persist across batches; version-stamped marks must
	// prevent any leakage between rounds.
	g, e := testSetup(t, 2)
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	n := int32(g.NumVertices())
	for _, s := range []int32{0, n - 1, 5, 5, n / 2} {
		e.MultiTree([]int32{s, (s + 13) % n})
		for lane, src := range []int32{s, (s + 13) % n} {
			d.Run(src)
			for v := int32(0); v < n; v += 7 {
				if got, want := e.Dist(lane, v), d.Dist(v); got != want {
					t.Fatalf("src %d lane %d: dist(%d)=%d, want %d (stale device state?)", src, lane, v, got, want)
				}
			}
		}
	}
}

func TestCopyDistances(t *testing.T) {
	g, e := testSetup(t, 2)
	e.MultiTree([]int32{3, 9})
	buf := make([]uint32, g.NumVertices())
	before := e.Device().Stats().HostBytes
	e.CopyDistances(1, buf)
	if e.Device().Stats().HostBytes-before != int64(g.NumVertices())*4 {
		t.Fatal("strided readback metered wrong byte count")
	}
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	d.Run(9)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		// buf is engine-ID indexed.
		if buf[e.engineID(v)] != d.Dist(v) {
			t.Fatalf("readback mismatch at %d", v)
		}
	}
}

// engineID is a test helper peeking through to the core engine mapping.
func (e *Engine) engineID(v int32) int32 { return e.ce.EngineID(v) }

func TestModeledTimeAndKernels(t *testing.T) {
	_, e := testSetup(t, 16)
	e.Device().ResetStats()
	e.Tree(0)
	s1 := e.Device().Stats()
	levels := len(e.ce.LevelRanges())
	if s1.Kernels != levels+2 {
		t.Fatalf("kernels=%d, want %d (one per level + 2 seed kernels)", s1.Kernels, levels+2)
	}
	if e.LastBatchModeledTime() <= 0 {
		t.Fatal("no modeled time for the batch")
	}
	// k=16 must cost less than 16x the k=1 time per tree (shared sweeps).
	t1 := e.LastBatchModeledTime()
	sources := make([]int32, 16)
	for i := range sources {
		sources[i] = int32(i * 11)
	}
	e.MultiTree(sources)
	t16 := e.LastBatchModeledTime()
	if t16 >= 16*t1 {
		t.Fatalf("multi-tree has no modeled benefit: k=1 %v vs k=16 %v", t1, t16)
	}
}

func TestMemoryAccounting(t *testing.T) {
	_, e1 := testSetup(t, 1)
	_, e16 := testSetup(t, 16)
	if e16.MemoryUsed() <= e1.MemoryUsed() {
		t.Fatalf("k=16 engine not larger: %d vs %d", e16.MemoryUsed(), e1.MemoryUsed())
	}
}

func TestRejectsWrongModeAndBadK(t *testing.T) {
	net, err := roadnet.Generate(roadnet.Params{Width: 12, Height: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := ch.Build(net.Graph, ch.Options{Workers: 1})
	ce, err := core.NewEngine(h, core.Options{Mode: core.SweepRankOrder})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(ce, simt.NewDevice(simt.GTX580()), 1); err == nil {
		t.Fatal("rank-order engine accepted")
	}
	ceOK, err := core.NewEngine(h, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(ceOK, simt.NewDevice(simt.GTX580()), 0); err == nil {
		t.Fatal("maxK=0 accepted")
	}
	e, err := NewEngine(ceOK, simt.NewDevice(simt.GTX580()), 2)
	if err != nil {
		t.Fatal(err)
	}
	e.MultiTree(nil)
	if e.K() != 0 {
		t.Fatal("empty batch should clear K")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("k>maxK accepted")
		}
	}()
	e.MultiTree([]int32{0, 1, 2})
}

func TestDeviceTooSmall(t *testing.T) {
	net, err := roadnet.Generate(roadnet.Params{Width: 16, Height: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := ch.Build(net.Graph, ch.Options{Workers: 1})
	ce, err := core.NewEngine(h, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := simt.GTX580()
	spec.MemoryBytes = 1 << 12
	if _, err := NewEngine(ce, simt.NewDevice(spec), 4); err == nil {
		t.Fatal("engine fit into a 4KB device")
	}
}
