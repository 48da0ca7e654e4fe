package server_test

import (
	"context"
	"errors"
	"math/rand"
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

// TestEpochSwapUnderLoad hammers a TreeServer with concurrent queries
// while a background goroutine keeps customizing and installing new
// metric epochs and another keeps resizing the shared worker pool.
// Designed to run under -race. Beyond surviving, every result must be
// *consistent*: its epoch tag must lie between the last install that
// completed before the query was enqueued and the last install
// announced by the time the result was received, and its distances
// must be exactly the Dijkstra distances of the weight vector that
// was installed under that epoch — i.e. a swap mid-traffic never
// yields a tree mixing two metrics or a stale tag.
func TestEpochSwapUnderLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	g := gridGraph(rng, 8, 6, 40)
	n := g.NumVertices()
	topo, err := ch.BuildCustomizable(g, ch.Options{Workers: 2})
	if err != nil {
		t.Fatalf("BuildCustomizable: %v", err)
	}
	base, err := core.NewEngine(topo.Hierarchy(), core.Options{Workers: 2, ParallelGrain: 16})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-customize a cycle of weight vectors and precompute each one's
	// full Dijkstra oracle, so queriers can verify any epoch's distances.
	const variants = 3
	engines := make([]*core.Engine, variants)
	oracles := make([][][]uint32, variants) // [variant][source][vertex]
	weightsOf := func(v int) []uint32 {
		r := rand.New(rand.NewSource(int64(1000 + v)))
		w := make([]uint32, g.NumArcs())
		for i := range w {
			if r.Intn(12) == 0 {
				w[i] = graph.Inf
			} else {
				w[i] = uint32(r.Intn(300))
			}
		}
		return w
	}
	for v := 0; v < variants; v++ {
		w := weightsOf(v)
		h2, err := topo.Customize(w, ch.CustomizeOptions{Epoch: int64(v + 1)})
		if err != nil {
			t.Fatalf("Customize variant %d: %v", v, err)
		}
		if engines[v], err = core.NewEngineSharingPool(base, h2); err != nil {
			t.Fatalf("NewEngineSharingPool variant %d: %v", v, err)
		}
		gw, err := g.WithWeights(w)
		if err != nil {
			t.Fatal(err)
		}
		dij := sssp.NewDijkstra(gw, pq.KindBinaryHeap)
		oracles[v] = make([][]uint32, n)
		for s := 0; s < n; s++ {
			dij.Run(int32(s))
			d := make([]uint32, n)
			for u := 0; u < n; u++ {
				d[u] = dij.Dist(int32(u))
			}
			oracles[v][s] = d
		}
	}
	// The base (reference) metric is variant index -1; oracle from the
	// original weights.
	baseOracle := make([][]uint32, n)
	{
		dij := sssp.NewDijkstra(g, pq.KindBinaryHeap)
		for s := 0; s < n; s++ {
			dij.Run(int32(s))
			d := make([]uint32, n)
			for u := 0; u < n; u++ {
				d[u] = dij.Dist(int32(u))
			}
			baseOracle[s] = d
		}
	}

	srv, err := server.New(base, server.Options{MaxBatch: 4, Engines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Epoch-bound bookkeeping. The server's initial install of the
	// default metric is epoch 1. A single installer goroutine owns all
	// further installs, so it can announce each epoch — and record which
	// variant it carries — *before* the install publishes it.
	var announced, completed atomic.Uint64
	announced.Store(1)
	completed.Store(1)
	var epochVariant sync.Map // epoch → variant index (-1 = reference)
	epochVariant.Store(uint64(1), -1)

	const installs = 25
	const queriers = 4
	const queriesEach = 150

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // installer: keeps swapping the default metric's epoch
		defer wg.Done()
		next := uint64(2)
		for i := 0; i < installs; i++ {
			v := i % variants
			announced.Store(next)
			epochVariant.Store(next, v)
			ep, err := srv.InstallMetric(server.DefaultMetric, engines[v])
			if err != nil {
				t.Errorf("InstallMetric: %v", err)
				return
			}
			if ep != next {
				t.Errorf("install %d got epoch %d, expected %d", i, ep, next)
				return
			}
			completed.Store(ep)
			next = ep + 1
		}
	}()
	wg.Add(1)
	go func() { // resizer: exercises SetWorkers against live sweeps
		defer wg.Done()
		for i := 0; i < 60; i++ {
			_ = base.SetWorkers(1 + i%3) // "sweep in flight" errors are expected
		}
	}()
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < queriesEach; i++ {
				src := int32(r.Intn(n))
				lo := completed.Load()
				res, err := srv.Query(context.Background(), src)
				hi := announced.Load()
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				ep := res.Epoch()
				if ep < lo || ep > hi {
					t.Errorf("result epoch %d outside active window [%d,%d]", ep, lo, hi)
				}
				vi, ok := epochVariant.Load(ep)
				if !ok {
					t.Errorf("result epoch %d was never announced", ep)
				} else {
					oracle := baseOracle
					if v := vi.(int); v >= 0 {
						oracle = oracles[v]
					}
					for probe := 0; probe < 5; probe++ {
						u := int32(r.Intn(n))
						if got, want := res.Dist(u), oracle[src][u]; got != want {
							t.Errorf("epoch %d: dist %d->%d = %d, its metric's Dijkstra says %d", ep, src, u, got, want)
							break
						}
					}
				}
				res.Release()
			}
		}(int64(42 + q))
	}
	wg.Wait()

	st := srv.Stats()
	if st.MetricSwaps != installs+1 {
		t.Fatalf("MetricSwaps = %d, want %d", st.MetricSwaps, installs+1)
	}
	if ep, ok := srv.ActiveEpoch(server.DefaultMetric); !ok || ep != installs+1 {
		t.Fatalf("ActiveEpoch = %d,%v, want %d", ep, ok, installs+1)
	}
}

// TestQueryMetricNamedEpochs covers the multi-metric half: a second
// named metric installed mid-traffic becomes queryable exactly from
// its install on, its results carry its own name and epoch, and an
// uninstalled name fails with ErrUnknownMetric.
func TestQueryMetricNamedEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gridGraph(rng, 6, 5, 30)
	n := g.NumVertices()
	topo, err := ch.BuildCustomizable(g, ch.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.NewEngine(topo.Hierarchy(), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(base, server.Options{MaxBatch: 4, Engines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := srv.QueryMetric(context.Background(), "truck", 0); !errors.Is(err, server.ErrUnknownMetric) {
		t.Fatalf("uninstalled metric returned %v, want ErrUnknownMetric", err)
	}

	w := make([]uint32, g.NumArcs())
	for i := range w {
		w[i] = uint32(rng.Intn(200))
	}
	h2, err := topo.Customize(w, ch.CustomizeOptions{Epoch: 1, Name: "truck"})
	if err != nil {
		t.Fatal(err)
	}
	truck, err := core.NewEngineSharingPool(base, h2)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := srv.InstallMetric("truck", truck)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := g.WithWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	dij := sssp.NewDijkstra(gw, pq.KindBinaryHeap)
	for trial := 0; trial < 5; trial++ {
		src := int32(rng.Intn(n))
		res, err := srv.QueryMetric(context.Background(), "truck", src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metric() != "truck" || res.Epoch() != ep {
			t.Fatalf("result tagged (%q, %d), want (\"truck\", %d)", res.Metric(), res.Epoch(), ep)
		}
		dij.Run(src)
		for u := 0; u < n; u++ {
			if got, want := res.Dist(int32(u)), dij.Dist(int32(u)); got != want {
				t.Fatalf("truck dist %d->%d = %d, Dijkstra says %d", src, u, got, want)
			}
		}
		// The default metric keeps answering with the original weights.
		def, err := srv.Query(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if def.Metric() != server.DefaultMetric {
			t.Fatalf("default result tagged %q", def.Metric())
		}
		def.Release()
		res.Release()
	}
}
