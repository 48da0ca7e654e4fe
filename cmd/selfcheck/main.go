// Command selfcheck cross-validates the whole PHAST stack on freshly
// generated instances: PHAST trees (sequential, parallel, multi-tree,
// simulated GPU) against Dijkstra, CH point-to-point queries, path
// unpacking, arc flags and RPHAST. It is the post-install smoke test a
// downstream user runs before trusting the library on their workload.
//
// Usage:
//
//	selfcheck                 # quick pass (~seconds)
//	selfcheck -seed 7 -trials 5 -width 48 -height 40
//
// Exit status 0 means every check passed.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"phast"
	"phast/internal/pq"
	"phast/internal/sssp"
)

func main() {
	var (
		trials = flag.Int("trials", 3, "instances to generate and validate")
		width  = flag.Int("width", 28, "instance grid width")
		height = flag.Int("height", 24, "instance grid height")
		seed   = flag.Int64("seed", 1, "base seed; trial i uses seed+i")
	)
	flag.Parse()
	start := time.Now()
	if phast.CheckedBuild {
		fmt.Println("checked build: invariant validators active (phastdebug)")
	} else {
		fmt.Println("release build: invariant validators are no-ops (rebuild with -tags phastdebug for deep checks)")
	}
	for i := 0; i < *trials; i++ {
		if err := checkInstance(*width, *height, *seed+int64(i), i%2 == 1); err != nil {
			fmt.Fprintf(os.Stderr, "selfcheck: trial %d FAILED: %v\n", i, err)
			os.Exit(1)
		}
		fmt.Printf("trial %d ok\n", i)
	}
	fmt.Printf("selfcheck passed (%d trials, %v)\n", *trials, time.Since(start).Round(time.Millisecond))
}

func checkInstance(w, h int, seed int64, oneWay bool) error {
	params := phast.RoadParams{Width: w, Height: h, Seed: seed}
	if oneWay {
		params.OneWayProb = 0.3
	}
	net, err := phast.GenerateRoadNetwork(params)
	if err != nil {
		return err
	}
	g := net.Graph
	n := g.NumVertices()
	eng, err := phast.Preprocess(g, nil)
	if err != nil {
		return err
	}
	if err := eng.CheckInvariants(); err != nil {
		return fmt.Errorf("structural invariants: %w", err)
	}
	oracle := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	rng := rand.New(rand.NewSource(seed))

	// Trees: sequential, parallel, multi-tree, GPU.
	gpu, err := eng.GPU(phast.GTX580(), 4)
	if err != nil {
		return err
	}
	sources := []int32{0, int32(rng.Intn(n)), int32(rng.Intn(n)), int32(n - 1)}
	gpu.MultiTree(sources)
	eng.MultiTree(sources)
	for lane, s := range sources {
		oracle.Run(s)
		clone := eng.Clone()
		clone.Tree(s)
		par := eng.Clone()
		par.TreeParallel(s)
		for v := int32(0); v < int32(n); v++ {
			want := oracle.Dist(v)
			if clone.Dist(v) != want {
				return fmt.Errorf("sequential tree wrong at src=%d v=%d", s, v)
			}
			if par.Dist(v) != want {
				return fmt.Errorf("parallel tree wrong at src=%d v=%d", s, v)
			}
			if eng.MultiDist(lane, v) != want {
				return fmt.Errorf("multi-tree lane %d wrong at v=%d", lane, v)
			}
			if gpu.Dist(lane, v) != want {
				return fmt.Errorf("GPU tree lane %d wrong at v=%d", lane, v)
			}
		}
	}

	// Point-to-point queries and unpacked paths.
	for q := 0; q < 20; q++ {
		s, t := int32(rng.Intn(n)), int32(rng.Intn(n))
		oracle.Run(s)
		want := oracle.Dist(t)
		if got := eng.Query(s, t); got != want {
			return fmt.Errorf("query (%d,%d)=%d, want %d", s, t, got, want)
		}
		if want == phast.Inf {
			continue
		}
		path := eng.QueryPath(s, t)
		if len(path) == 0 || path[0] != s || path[len(path)-1] != t {
			return fmt.Errorf("path endpoints wrong for (%d,%d)", s, t)
		}
		var sum uint32
		for i := 1; i < len(path); i++ {
			wgt, ok := g.FindArc(path[i-1], path[i])
			if !ok {
				return fmt.Errorf("path uses non-arc (%d,%d)", path[i-1], path[i])
			}
			sum += wgt
		}
		if sum != want {
			return fmt.Errorf("path length %d != distance %d", sum, want)
		}
	}

	// Arc flags.
	af, err := phast.BuildArcFlags(g, &phast.ArcFlagsOptions{Cells: 4, Seed: seed})
	if err != nil {
		return err
	}
	for q := 0; q < 10; q++ {
		s, t := int32(rng.Intn(n)), int32(rng.Intn(n))
		oracle.Run(s)
		if got := af.Query(s, t); got != oracle.Dist(t) {
			return fmt.Errorf("arc flags query (%d,%d)=%d, want %d", s, t, got, oracle.Dist(t))
		}
	}

	// RPHAST one-to-many.
	targets := []int32{int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
	sel, err := eng.SelectTargets(targets)
	if err != nil {
		return err
	}
	tq := sel.NewQuery()
	for q := 0; q < 5; q++ {
		s := int32(rng.Intn(n))
		tq.Run(s)
		oracle.Run(s)
		for i, tgt := range targets {
			if tq.Dist(i) != oracle.Dist(tgt) {
				return fmt.Errorf("rphast (%d,%d)=%d, want %d", s, tgt, tq.Dist(i), oracle.Dist(tgt))
			}
		}
	}
	return nil
}
