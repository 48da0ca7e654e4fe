package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/server"
	"phast/internal/sssp"
)

// The differential oracle: every tree the concurrent server returns must
// be identical, label for label, to a sequential Dijkstra run over the
// original graph. Batching, lane assignment, engine pooling, buffer
// pooling and result fan-out all sit between the two, so any aliasing or
// lane-mixup bug shows up as a mismatch here.

// oracleConfig is one graph instance the differential suite replays.
type oracleConfig struct {
	name string
	g    *graph.Graph
}

func oracleConfigs() []oracleConfig {
	var cfgs []oracleConfig
	for _, seed := range []int64{101, 102, 103} {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(150)
		cfgs = append(cfgs, oracleConfig{
			name: fmt.Sprintf("gilbert/seed=%d", seed),
			g:    gilbertGraph(rng, n, 4/float64(n), 1000),
		})
	}
	for _, seed := range []int64{201, 202} {
		rng := rand.New(rand.NewSource(seed))
		cfgs = append(cfgs, oracleConfig{
			name: fmt.Sprintf("grid/seed=%d", seed),
			g:    gridGraph(rng, 14+rng.Intn(6), 12+rng.Intn(6), 30),
		})
	}
	return cfgs
}

// TestConcurrentQueriesMatchDijkstra fires concurrent Query calls at a
// batching server and checks every returned tree element-wise against a
// per-goroutine Dijkstra solver. Across all configs it verifies well
// over 1000 concurrent queries (the acceptance floor).
func TestConcurrentQueriesMatchDijkstra(t *testing.T) {
	const (
		goroutines       = 8
		queriesPerClient = 40
	)
	var verified atomic.Int64
	for _, cfg := range oracleConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			n := cfg.g.NumVertices()
			s := newServer(t, cfg.g, server.Options{
				MaxBatch: 8, Engines: 2,
			})
			var wg sync.WaitGroup
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000 + w)))
					oracle := sssp.NewDijkstra(cfg.g, pq.KindBinaryHeap)
					want := make([]uint32, n)
					for q := 0; q < queriesPerClient; q++ {
						src := int32(rng.Intn(n))
						res, err := s.Query(context.Background(), src)
						if err != nil {
							t.Errorf("client %d query %d: %v", w, q, err)
							return
						}
						if res.Source() != src {
							t.Errorf("client %d: got tree for source %d, want %d", w, res.Source(), src)
							res.Release()
							return
						}
						oracle.Run(src)
						oracle.CopyDistances(want)
						got := res.Distances()
						for v := range want {
							if got[v] != want[v] {
								t.Errorf("client %d src %d: dist(%d)=%d, Dijkstra says %d",
									w, src, v, got[v], want[v])
								res.Release()
								return
							}
						}
						res.Release()
						verified.Add(1)
					}
				}(w)
			}
			wg.Wait()
			st := s.Stats()
			if st.Queries < goroutines*queriesPerClient {
				t.Fatalf("server served %d queries, want %d", st.Queries, goroutines*queriesPerClient)
			}
		})
	}
	if v := verified.Load(); v < 1000 {
		t.Fatalf("differential oracle verified only %d concurrent queries, want ≥1000", v)
	}
	t.Logf("differential oracle verified %d concurrent queries", verified.Load())
}

// TestQueryManyMatchesSingleTree cross-checks the batched QueryMany path
// against the engine's own single-source Tree on a private clone.
func TestQueryManyMatchesSingleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	g := gridGraph(rng, 16, 14, 40)
	n := g.NumVertices()
	proto := newCoreEngine(t, g, 1)
	s, err := server.New(proto, server.Options{MaxBatch: 16, Engines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := proto.Clone()
	want := make([]uint32, n)
	for _, k := range []int{1, 5, 16, 23} {
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		results, err := s.QueryMany(context.Background(), sources)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != k {
			t.Fatalf("QueryMany returned %d results, want %d", len(results), k)
		}
		for i, res := range results {
			if res.Source() != sources[i] {
				t.Fatalf("result %d is for source %d, want %d", i, res.Source(), sources[i])
			}
			ref.Tree(sources[i])
			ref.CopyDistances(want)
			got := res.Distances()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("k=%d tree %d (src %d): dist(%d)=%d, Tree says %d",
						k, i, sources[i], v, got[v], want[v])
				}
			}
			res.Release()
		}
	}
}

// TestResultsSurviveLaterSweeps pins the no-aliasing guarantee at the
// server level: a result held while hundreds of later queries run
// through the same pooled engines must not change.
func TestResultsSurviveLaterSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	g := gilbertGraph(rng, 250, 4.0/250, 500)
	n := g.NumVertices()
	s := newServer(t, g, server.Options{MaxBatch: 8, Engines: 1})
	held, err := s.Query(context.Background(), 17)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]uint32, n)
	copy(snapshot, held.Distances())
	for q := 0; q < 200; q++ {
		res, err := s.Query(context.Background(), int32(rng.Intn(n)))
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	for v, want := range snapshot {
		if got := held.Dist(int32(v)); got != want {
			t.Fatalf("held result mutated by later sweeps at vertex %d: %d -> %d", v, want, got)
		}
	}
	held.Release()
}
