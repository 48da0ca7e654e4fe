// Package bandwidth implements the lower-bound experiments of Section
// VIII-B: how fast can the memory system possibly deliver the data PHAST
// touches? The paper measures (a) a pure sequential pass over the first,
// arclist and distance arrays (65.6ms on the benchmark machine — PHAST
// is only 2.6x slower) and (b) the same traversal shaped like PHAST's
// vertex loop, storing the sum of incoming arc lengths (153ms, only 19ms
// under PHAST), showing the algorithm runs close to the memory bound.
package bandwidth

import (
	"sync"
	"time"

	"phast/internal/graph"
)

// sink defeats dead-code elimination of the measurement loops.
var sink uint64

// Sequential measures one pass that sequentially reads the first array,
// the arc list and the distance array, then writes every distance entry
// — the paper's streaming lower bound. It returns the time per
// repetition.
func Sequential(g *graph.Graph, dist []uint32, reps int) time.Duration {
	first := g.FirstOut()
	arcs := g.ArcList()
	start := time.Now()
	var acc uint64
	for r := 0; r < reps; r++ {
		for _, f := range first {
			acc += uint64(f)
		}
		for i := range arcs {
			acc += uint64(arcs[i].Head) + uint64(arcs[i].Weight)
		}
		for _, d := range dist {
			acc += uint64(d)
		}
		for i := range dist {
			dist[i] = uint32(acc)
		}
	}
	sink += acc
	return time.Since(start) / time.Duration(reps)
}

// Traversal measures the PHAST-shaped loop: iterate vertices, and for
// each vertex loop over its (few) incident arcs, storing at d(v) the sum
// of the lengths of the arcs into v. Identical data in identical order
// to Sequential, but with the short, varying inner loop that is harder
// on the branch predictor — the gap between the two is loop overhead,
// not cache misses.
func Traversal(downIn *graph.Graph, dist []uint32, reps int) time.Duration {
	first := downIn.FirstOut()
	arcs := downIn.ArcList()
	n := int32(downIn.NumVertices())
	start := time.Now()
	for r := 0; r < reps; r++ {
		for v := int32(0); v < n; v++ {
			var sum uint32
			for i := first[v]; i < first[v+1]; i++ {
				sum += arcs[i].Weight
			}
			dist[v] = sum
		}
	}
	sink += uint64(dist[0])
	return time.Since(start) / time.Duration(reps)
}

// SequentialParallel is Sequential with the arrays partitioned across
// workers — the four-core lower bound of Section VIII-C (12.8ms/tree at
// k=16, more than two thirds of PHAST's 18.8ms: bandwidth is the wall).
func SequentialParallel(g *graph.Graph, dist []uint32, reps, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	first := g.FirstOut()
	arcs := g.ArcList()
	start := time.Now()
	for r := 0; r < reps; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var acc uint64
				alo, ahi := len(arcs)*w/workers, len(arcs)*(w+1)/workers
				for i := alo; i < ahi; i++ {
					acc += uint64(arcs[i].Head) + uint64(arcs[i].Weight)
				}
				flo, fhi := len(first)*w/workers, len(first)*(w+1)/workers
				for _, f := range first[flo:fhi] {
					acc += uint64(f)
				}
				dlo, dhi := len(dist)*w/workers, len(dist)*(w+1)/workers
				for i := dlo; i < dhi; i++ {
					acc += uint64(dist[i])
					dist[i] = uint32(acc)
				}
			}(w)
		}
		wg.Wait()
	}
	return time.Since(start) / time.Duration(reps)
}

// BytesTouched returns the bytes one Sequential repetition streams,
// letting callers convert the measurement into GB/s.
func BytesTouched(g *graph.Graph, dist []uint32) int64 {
	return int64(len(g.FirstOut()))*4 + int64(g.NumArcs())*8 + int64(len(dist))*8
}

// SweepTraffic models the memory traffic of one PHAST sweep (phase 2),
// the denominator of the achieved-GB/s numbers reported next to the
// Sequential/Traversal lower bounds. The model counts the data streams
// the kernels actually walk: the graph layout once per sweep, plus k
// tail-label reads per arc and k label writes per vertex. It
// deliberately ignores cache reuse of the tail labels, so the reported
// GB/s is an upper bound on true DRAM traffic and a stable
// regression-checkable figure of merit.
type SweepTraffic struct {
	// N and M are the downward graph's vertex and arc counts.
	N, M int
	// K is the number of trees grown per sweep (0 is treated as 1).
	K int
	// StreamBytes, when positive, is the byte length of the arc-major
	// sweep stream (graph.Packed words × 4), which the graph walk reads
	// once. The kernels over it add one 4-byte word per vertex: at k=1
	// the Inf prefill of the labels before the upward search, at k ≥ 2
	// the block-index entry that delimits each position's arc run. Zero
	// models the plain CSR layout of Section III (first, arclist and a
	// mark byte per vertex).
	StreamBytes int64
	// Ordered adds the sweep-order array (4 bytes per vertex) a sweep
	// outside the reordered layout reads to map positions to vertices.
	Ordered bool
	// Parents adds the parent-pointer write stream (TreeWithParents).
	Parents bool
}

// Bytes returns the modeled bytes one sweep touches.
func (t SweepTraffic) Bytes() int64 {
	k := int64(t.K)
	if k < 1 {
		k = 1
	}
	b := t.StreamBytes
	if b > 0 {
		b += int64(t.N) * 4 // k=1: label prefill; k ≥ 2: block index
	} else {
		// first (4(n+1)) + AoS arcs (8m) + mark bytes (n).
		b = int64(t.N+1)*4 + int64(t.M)*8 + int64(t.N)
	}
	b += k * (int64(t.M)*4 + int64(t.N)*4) // tail-label reads + label writes
	if t.Ordered {
		b += int64(t.N) * 4
	}
	if t.Parents {
		b += int64(t.N) * 4
	}
	return b
}

// GBps converts bytes moved in d into gigabytes per second (10^9 B/s,
// the unit the paper's Section VIII-B discussion uses).
func GBps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e9
}
