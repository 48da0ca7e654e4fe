package server_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/server"
)

// gridGraph builds a w×h grid with random symmetric weights — the
// road-network-like test instance used across the repo.
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

// gilbertGraph builds a directed G(n,p) Gilbert graph with weights in
// [1,maxW]; sparse p keeps it road-network-degree-ish but with none of
// the grid's regularity.
func gilbertGraph(rng *rand.Rand, n int, p float64, maxW int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				b.MustAddArc(int32(u), int32(v), uint32(1+rng.Intn(maxW)))
			}
		}
	}
	return b.Build()
}

// newCoreEngine preprocesses g once and returns the prototype engine a
// server pool clones.
func newCoreEngine(t testing.TB, g *graph.Graph, workers int) *core.Engine {
	t.Helper()
	h := ch.Build(g, ch.Options{Workers: 1})
	e, err := core.NewEngine(h, core.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newServer(t testing.TB, g *graph.Graph, opt server.Options) *server.TreeServer {
	t.Helper()
	s, err := server.New(newCoreEngine(t, g, 1), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestOptionsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng := newCoreEngine(t, gridGraph(rng, 4, 4, 10), 1)
	for _, opt := range []server.Options{
		{MaxBatch: -1},
		{Engines: -2},
		{QueueSize: -1},
		{Overload: server.OverloadPolicy(7)},
	} {
		if _, err := server.New(eng, opt); err == nil {
			t.Fatalf("options %+v accepted", opt)
		}
	}
	s, err := server.New(eng, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 16 {
		t.Fatalf("NumVertices=%d, want 16", s.NumVertices())
	}
	s.Close()
}

func TestQuerySourceOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := newServer(t, gridGraph(rng, 5, 5, 10), server.Options{})
	if _, err := s.Query(context.Background(), -1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := s.Query(context.Background(), 25); err == nil {
		t.Fatal("source ≥ n accepted")
	}
	if _, err := s.QueryMany(context.Background(), []int32{3, 99}); err == nil {
		t.Fatal("QueryMany with out-of-range source accepted")
	}
}

func TestStatsCountQueriesAndBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newServer(t, gridGraph(rng, 8, 8, 20), server.Options{
		MaxBatch: 4, Engines: 1,
	})
	sources := make([]int32, 10)
	for i := range sources {
		sources[i] = int32(rng.Intn(64))
	}
	results, err := s.QueryMany(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Source() != sources[i] {
			t.Fatalf("result %d has source %d, want %d", i, r.Source(), sources[i])
		}
		r.Release()
	}
	st := s.Stats()
	if st.Queries != 10 {
		t.Fatalf("Queries=%d, want 10", st.Queries)
	}
	// QueryMany submits whole chunks of MaxBatch, so 10 sources are
	// swept as 4+4+2: exactly three sweeps holding ten trees.
	if st.Batches != 3 || st.MeanBatchOccupancy != 10.0/3 {
		t.Fatalf("Batches=%d occupancy %v, want 3 sweeps of 4+4+2", st.Batches, st.MeanBatchOccupancy)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("QueueDepth=%d after drain, want 0", st.QueueDepth)
	}
	if st.QueueHighWater < 1 {
		t.Fatalf("QueueHighWater=%d, want ≥1", st.QueueHighWater)
	}
	// Bandwidth accounting: every batch adds sweep time and modeled bytes.
	if st.SweepSeconds <= 0 {
		t.Fatalf("SweepSeconds=%v after %d batches, want >0", st.SweepSeconds, st.Batches)
	}
	if st.SweepBytes == 0 {
		t.Fatal("SweepBytes=0 after batches")
	}
	if st.SweepGBps <= 0 {
		t.Fatalf("SweepGBps=%v, want >0", st.SweepGBps)
	}
	// Layout accounting: the default engine sweeps the packed stream.
	if st.StreamBytes == 0 {
		t.Fatal("StreamBytes=0")
	}
}

func TestContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newServer(t, gridGraph(rng, 6, 6, 10), server.Options{Engines: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query returned %v, want context.Canceled", err)
	}
	// A canceled request in a batch must not disturb its neighbors.
	live, err := s.Query(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if live.Dist(7) != 0 {
		t.Fatalf("dist(source)=%d, want 0", live.Dist(7))
	}
	live.Release()
}

func TestCloseSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gridGraph(rng, 7, 7, 15)
	s, err := server.New(newCoreEngine(t, g, 1), server.Options{Engines: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	// Close is idempotent and safe concurrently.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Close() }()
	}
	wg.Wait()
	if _, err := s.Query(context.Background(), 3); !errors.Is(err, server.ErrClosed) {
		t.Fatalf("Query after Close returned %v, want ErrClosed", err)
	}
	if _, err := s.QueryMany(context.Background(), []int32{1, 2}); !errors.Is(err, server.ErrClosed) {
		t.Fatalf("QueryMany after Close returned %v, want ErrClosed", err)
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newServer(t, gridGraph(rng, 5, 5, 10), server.Options{})
	res, err := s.Query(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	res.Release() // second release must be a no-op, not a double-put
	again, err := s.Query(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if again.Dist(12) != 0 {
		t.Fatal("recycled buffer served wrong labels")
	}
	again.Release()
}

func TestQueryManyEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := newServer(t, gridGraph(rng, 4, 4, 5), server.Options{})
	results, err := s.QueryMany(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty QueryMany: %v, %d results", err, len(results))
	}
}
