package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/server"
)

// benchProto builds the benchmark instance once: a grid big enough that
// the sweep dominates and batching has bandwidth to amortize.
var benchProto = struct {
	once sync.Once
	eng  *core.Engine
	n    int
}{}

func benchEngine(b *testing.B) (*core.Engine, int) {
	benchProto.once.Do(func() {
		rng := rand.New(rand.NewSource(77))
		g := gridGraph(rng, 60, 50, 100)
		h := ch.Build(g, ch.Options{Workers: 1})
		eng, err := core.NewEngine(h, core.Options{Workers: 1})
		if err != nil {
			panic(err)
		}
		benchProto.eng = eng
		benchProto.n = g.NumVertices()
	})
	return benchProto.eng, benchProto.n
}

// BenchmarkServerThroughput reports served queries/sec for batch sizes
// k ∈ {1,4,16} × engine-pool sizes, the trajectory future serving-layer
// PRs compare against. Clients outnumber k, so requests pile up into
// batches while every executor is busy.
func BenchmarkServerThroughput(b *testing.B) {
	proto, n := benchEngine(b)
	for _, k := range []int{1, 4, 16} {
		for _, engines := range []int{1, 2} {
			b.Run(fmt.Sprintf("k=%d/engines=%d", k, engines), func(b *testing.B) {
				s, err := server.New(proto, server.Options{
					MaxBatch: k, Engines: engines,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				b.SetParallelism(2 * k) // goroutines = 2k·GOMAXPROCS clients
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(int64(b.N)))
					for pb.Next() {
						res, err := s.Query(context.Background(), int32(rng.Intn(n)))
						if err != nil {
							b.Error(err)
							return
						}
						res.Release()
					}
				})
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N)/secs, "queries/s")
				}
				st := s.Stats()
				if st.Batches > 0 {
					b.ReportMetric(st.MeanBatchOccupancy, "occupancy")
				}
			})
		}
	}
}

// BenchmarkServerQueryMany measures the one-caller batch path: a single
// goroutine submitting k sources at once.
func BenchmarkServerQueryMany(b *testing.B) {
	proto, n := benchEngine(b)
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s, err := server.New(proto, server.Options{MaxBatch: k, Engines: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(78))
			sources := make([]int32, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range sources {
					sources[j] = int32(rng.Intn(n))
				}
				results, err := s.QueryMany(context.Background(), sources)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					r.Release()
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*k)/secs, "queries/s")
			}
		})
	}
}
