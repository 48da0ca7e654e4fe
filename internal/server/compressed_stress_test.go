package server_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/pq"
	"phast/internal/server"
	"phast/internal/sssp"
)

// TestServerStressCompressedBatch drives the executors' batch path —
// MultiTree over each executor's engine followed by per-lane
// CopyLaneDistances — on a compressed engine, whose multi kernel
// decodes each block into a staging buffer before the register relax
// it shares with packed engines. Written for -race: concurrent
// QueryMany callers force lanes from different callers into shared
// sweeps, so the vertex-major copy-out interleaves with admission and
// result recycling. Every distance is checked against Dijkstra and
// against a packed engine's lanes, so a torn or misrouted lane fails
// loudly rather than racing silently.
func TestServerStressCompressedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	g := gridGraph(rng, 9, 8, 35)
	n := g.NumVertices()
	h := ch.Build(g, ch.Options{Workers: 1})
	proto, err := core.NewEngine(h, core.Options{
		Workers: 2, CompressedSweep: true, ParallelGrain: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if proto.PackedZ() == nil {
		t.Fatal("CompressedSweep engine has no compressed stream")
	}
	packed, err := core.NewEngine(h, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(proto, server.Options{
		MaxBatch: 6, Engines: 2, QueueSize: 16,
		Linger: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Ground truth per source, computed once up front: Dijkstra, and
	// the packed engine's vertex-major lanes must agree with it.
	want := make([][]uint32, n)
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	packed.MultiTree(all, false)
	for v := 0; v < n; v++ {
		d.Run(int32(v))
		want[v] = make([]uint32, n)
		for u := int32(0); u < int32(n); u++ {
			want[v][u] = d.Dist(u)
			if got := packed.MultiDist(v, u); got != want[v][u] {
				t.Fatalf("packed lane %d: dist(%d)=%d, Dijkstra %d", v, u, got, want[v][u])
			}
		}
	}

	goroutines := runtime.NumCPU() * 4
	iters := stressIters(t, 30)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + w)))
			for i := 0; i < iters; i++ {
				sources := make([]int32, 1+rng.Intn(6))
				for j := range sources {
					sources[j] = int32(rng.Intn(n))
				}
				results, err := s.QueryMany(context.Background(), sources)
				if err != nil {
					t.Errorf("QueryMany: %v", err)
					return
				}
				for j, res := range results {
					src := sources[j]
					if res.Source() != src {
						t.Errorf("lane mixup: result %d has source %d, want %d",
							j, res.Source(), src)
					}
					for u := int32(0); u < int32(n); u += 5 {
						if got := res.Dist(u); got != want[src][u] {
							t.Errorf("src %d: dist(%d)=%d, want %d", src, u, got, want[src][u])
							break
						}
					}
					res.Release()
				}
			}
		}(w)
	}
	wg.Wait()
}
