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

// BenchmarkSweepKernel times phase 2 for k = 1, 2 and 16 trees: the
// label prefill and upward searches run outside the timed region, so
// each iteration times the kernel that walks the stream over [0,n).
func BenchmarkSweepKernel(b *testing.B) {
	h, n := sweepHierarchy(b)
	e, err := NewEngine(h, Options{Mode: SweepReordered, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 16} {
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		e.MultiTree(sources, false) // sizes kdist for k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if k == 1 {
					fillInf(e.dist)
					e.chSearch(sources[0], nil)
					e.clearMarks()
				} else {
					e.touched = e.touched[:0]
					for j, src := range sources {
						e.chSearchLane(src, j, k)
					}
					e.buildSeeds()
				}
				b.StartTimer()
				if k == 1 {
					e.scanPackedChunk(0, int32(n))
				} else {
					e.scanPackedMultiChunk(0, int32(n), k)
				}
			}
		})
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
