package server_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/server"
	"phast/internal/sssp"
)

// pooledEngine builds a customizable hierarchy over g and a prototype
// engine whose pool has two workers and a pinned multi-chunk schedule,
// so any pooled sweep on it really runs on the scheduler.
func pooledEngine(t *testing.T, g *graph.Graph) (*ch.Topology, *core.Engine) {
	t.Helper()
	topo, err := ch.BuildCustomizable(g, ch.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(topo.Hierarchy(), core.Options{Workers: 2, ParallelGrain: 8})
	if err != nil {
		t.Fatal(err)
	}
	return topo, e
}

// TestServingLeavesSchedulerIdle pins the serving design: executors
// sweep their batches sequentially on their own goroutines, so no
// served query reaches the engines' shared worker pool, even on a
// multi-CPU host whose engines are configured for pooled sweeps.
func TestServingLeavesSchedulerIdle(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	rng := rand.New(rand.NewSource(31))
	g := gridGraph(rng, 9, 8, 30)
	n := g.NumVertices()
	_, proto := pooledEngine(t, g)
	s, err := server.New(proto, server.Options{MaxBatch: 4, Engines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Stats().SchedSweeps
	for i := 0; i < 8; i++ {
		res, err := s.Query(context.Background(), int32(rng.Intn(n)))
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	batch := make([]int32, 10)
	for i := range batch {
		batch[i] = int32(rng.Intn(n))
	}
	results, err := s.QueryMany(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		r.Release()
	}
	if after := s.Stats().SchedSweeps; after != before {
		t.Fatalf("serving 18 queries moved SchedSweeps from %d to %d", before, after)
	}
	// The counter itself is live: a pooled sweep on the prototype
	// engine registers on the same pool.
	proto.TreeParallel(0)
	if s.Stats().SchedSweeps == before {
		t.Fatal("a pooled TreeParallel on the prototype did not register in SchedSweeps")
	}
}

// TestServerStressMixedBatchesAndInstalls is written for -race: lone
// queries (k=1 batches, swept by the single-tree kernels), full
// QueryMany batches (the register multi-tree relax) and a goroutine
// re-installing alternating metrics all run at once. Every result must
// carry an epoch that was announced, and equal Dijkstra under the
// weights installed at that epoch.
func TestServerStressMixedBatchesAndInstalls(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := gridGraph(rng, 8, 7, 40)
	n := g.NumVertices()
	topo, base := pooledEngine(t, g)

	// Two metrics: the reference weights and a perturbed copy, each
	// with an all-pairs Dijkstra oracle.
	w := make([]uint32, g.NumArcs())
	for i := range w {
		w[i] = uint32(1 + rng.Intn(200))
	}
	h2, err := topo.Customize(w, ch.CustomizeOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := core.NewEngineSharingPool(base, h2)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := g.WithWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*core.Engine{base, alt}
	oracles := [][][]uint32{allPairs(g), allPairs(gw)}

	const maxBatch = 8
	s, err := server.New(base, server.Options{MaxBatch: maxBatch, Engines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The single installer announces each epoch's metric before
	// publishing it, so any result's epoch resolves to its weights.
	var epochMetric sync.Map // epoch → index into engines/oracles
	epochMetric.Store(uint64(1), 0)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := uint64(2)
		for i := 1; i <= 2 || !done.Load(); i++ {
			epochMetric.Store(next, i%2)
			ep, err := s.InstallMetric(server.DefaultMetric, engines[i%2])
			if err != nil || ep != next {
				t.Errorf("InstallMetric = %d, %v; want epoch %d", ep, err, next)
				return
			}
			next++
			runtime.Gosched()
		}
	}()
	check := func(res *server.TreeResult) {
		m, ok := epochMetric.Load(res.Epoch())
		if !ok {
			t.Errorf("result epoch %d was never announced", res.Epoch())
			return
		}
		want := oracles[m.(int)][res.Source()]
		for u := 0; u < n; u++ {
			if got := res.Dist(int32(u)); got != want[u] {
				t.Errorf("epoch %d src %d: dist(%d)=%d, Dijkstra %d", res.Epoch(), res.Source(), u, got, want[u])
				return
			}
		}
	}
	iters := stressIters(t, 60)
	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			r := rand.New(rand.NewSource(int64(900 + c)))
			for i := 0; i < iters; i++ {
				if c%2 == 0 {
					res, err := s.Query(context.Background(), int32(r.Intn(n)))
					if err != nil {
						t.Errorf("Query: %v", err)
						return
					}
					check(res)
					res.Release()
					continue
				}
				batch := make([]int32, maxBatch)
				for j := range batch {
					batch[j] = int32(r.Intn(n))
				}
				results, err := s.QueryMany(context.Background(), batch)
				if err != nil {
					t.Errorf("QueryMany: %v", err)
					return
				}
				for _, res := range results {
					check(res)
					res.Release()
				}
			}
		}(c)
	}
	clients.Wait()
	done.Store(true)
	wg.Wait()
	if st := s.Stats(); st.MetricSwaps < 3 {
		t.Fatalf("MetricSwaps=%d, want the initial install plus at least 2", st.MetricSwaps)
	}
}

// allPairs returns Dijkstra distances from every source of g.
func allPairs(g *graph.Graph) [][]uint32 {
	n := g.NumVertices()
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	out := make([][]uint32, n)
	for s := range out {
		d.Run(int32(s))
		out[s] = make([]uint32, n)
		for u := range out[s] {
			out[s][u] = d.Dist(int32(u))
		}
	}
	return out
}
