package core

import (
	"fmt"
	"math/rand"
	"testing"

	"phast/internal/ch"
)

// Sweep-kernel microbenchmark: phase 2 only, no upward search in the
// timed region, so it times exactly the kernel that reads the stream.

var sweepBench struct {
	h *ch.Hierarchy
	n int
}

func sweepHierarchy(b *testing.B) (*ch.Hierarchy, int) {
	if sweepBench.h == nil {
		rng := rand.New(rand.NewSource(9))
		g := gridGraph(rng, 120, 100, 30)
		sweepBench.h = ch.Build(g, ch.Options{Workers: 1})
		sweepBench.n = g.NumVertices()
	}
	return sweepBench.h, sweepBench.n
}

func BenchmarkSweepKernelPacked(b *testing.B) {
	h, n := sweepHierarchy(b)
	e, err := NewEngine(h, Options{Mode: SweepReordered, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := int32(n / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.chSearch(src, nil)
		e.buildSeeds()
		b.StartTimer()
		e.scanPackedChunk(0, int32(n))
	}
}

// BenchmarkCopyLanes times the copy-out of one k-tree batch into k
// original-ID buffers: "grouped" is CopyLanes' one pass per 4/2/1 lane
// group, "per-lane" the k CopyLaneDistances calls it replaces in the
// server.
func BenchmarkCopyLanes(b *testing.B) {
	h, n := sweepHierarchy(b)
	e, err := NewEngine(h, Options{Mode: SweepReordered, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for _, k := range []int{1, 2, 16} {
		sources := make([]int32, k)
		bufs := make([][]uint32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
			bufs[i] = make([]uint32, n)
		}
		e.MultiTree(sources, false)
		b.Run(fmt.Sprintf("k=%d/grouped", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.CopyLanes(bufs)
			}
		})
		b.Run(fmt.Sprintf("k=%d/per-lane", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, buf := range bufs {
					e.CopyLaneDistances(j, buf)
				}
			}
		})
	}
}
