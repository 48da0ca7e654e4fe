// All-pairs shortest paths — the paper's headline application (it
// motivates PHAST with "a few days instead of several months" on a CPU
// and "about half a day" on a GPU for continental road networks).
//
// This example computes the full n x n distance table of a small
// synthetic network with multi-tree PHAST sweeps, verifies a sample
// against point-to-point CH queries, and extrapolates the rate to the
// paper's 18M-vertex instance.
package main

import (
	"fmt"
	"log"
	"time"

	"phast"
)

func main() {
	net, err := phast.GenerateRoadNetwork(phast.RoadParams{Width: 48, Height: 40, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	g := net.Graph
	n := g.NumVertices()
	fmt.Printf("instance: %d vertices, %d arcs\n", n, g.NumArcs())

	start := time.Now()
	eng, err := phast.Preprocess(g, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessing: %v\n", time.Since(start).Round(time.Millisecond))

	// Grow k = 16 trees per sweep (Section IV-B) until every vertex has
	// been a source. Row v of the table is filled from tree lane i when
	// vertex batch[i] is the source.
	const k = 16
	sum := uint64(0) // aggregate instead of storing n^2 entries
	pairs := 0
	start = time.Now()
	sources := make([]int32, 0, k)
	for s := 0; s < n; s += k {
		sources = sources[:0]
		for i := s; i < s+k && i < n; i++ {
			sources = append(sources, int32(i))
		}
		eng.MultiTree(sources)
		for i := range sources {
			for v := int32(0); v < int32(n); v++ {
				if d := eng.MultiDist(i, v); d != phast.Inf {
					sum += uint64(d)
					pairs++
				}
			}
		}
	}
	elapsed := time.Since(start)
	perTree := elapsed / time.Duration(n)
	fmt.Printf("all-pairs: %d finite pairs, mean distance %.1f\n",
		pairs, float64(sum)/float64(pairs))
	fmt.Printf("%d trees in %v (%v per tree)\n", n, elapsed.Round(time.Millisecond), perTree)

	// Spot-check 5 entries against independent point-to-point queries.
	for i := 0; i < 5; i++ {
		s, t := int32(i*37%n), int32(i*911%n)
		eng.Tree(s)
		if got, want := eng.Dist(t), eng.Query(s, t); got != want {
			log.Fatalf("mismatch at (%d,%d): tree %d vs query %d", s, t, got, want)
		}
	}
	fmt.Println("spot-check against CH point-to-point queries: ok")

	// Extrapolate the measured per-tree rate (it scales roughly linearly
	// in n) to the paper's Europe instance.
	const europeN = 18_000_000
	scaled := time.Duration(float64(perTree) * float64(europeN) / float64(n) * float64(europeN))
	fmt.Printf("extrapolated all-pairs on %dM vertices, this host, one core: ~%.0f days\n",
		europeN/1_000_000, scaled.Hours()/24)
	fmt.Println("(the paper: 11 hours on a GTX 580, ~200 days for 4-core Dijkstra)")
}
