package core

import (
	"math/rand"
	"testing"

	"phast/internal/ch"
)

// Sweep-kernel microbenchmarks: phase 2 only, no upward search in the
// timed region, so the packed and compressed streams are compared on
// exactly the kernels that read them.

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

func benchSweepKernel(b *testing.B, compressed bool) {
	h, n := sweepHierarchy(b)
	e, err := NewEngine(h, Options{Mode: SweepReordered, Workers: 1, CompressedSweep: compressed})
	if err != nil {
		b.Fatal(err)
	}
	kind := e.s.kind(packedSingle)
	src := int32(n / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.chSearch(src, nil)
		e.buildSeeds()
		b.StartTimer()
		e.scanChunkKind(kind, 1, 0, int32(n))
	}
}

func BenchmarkSweepKernelPacked(b *testing.B) { benchSweepKernel(b, false) }

// BenchmarkSweepKernelCompressed times the compressed decode kernel on
// the same fixture, isolating decode cost from the upward search.
func BenchmarkSweepKernelCompressed(b *testing.B) { benchSweepKernel(b, true) }
