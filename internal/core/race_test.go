package core

import (
	"math/rand"
	"sync"
	"testing"

	"phast/internal/ch"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// These tests exist to run under `go test -race`: the parallel sweeps
// hand chunks to persistent pool workers, and this file exercises that
// handoff with the race detector watching. The graph is sized so the
// sweep spans several grain-sized chunks — otherwise the sequential
// fallback would hide the workers entirely.

// raceFixture builds one hierarchy big enough for real worker spawns and
// shares it across the race tests (CH construction dominates test time).
var raceFixture = struct {
	once sync.Once
	h    *ch.Hierarchy
	n    int
	d    *sssp.Dijkstra
}{}

func raceHierarchy(t *testing.T) (*ch.Hierarchy, int) {
	raceFixture.once.Do(func() {
		rng := rand.New(rand.NewSource(50))
		g := gridGraph(rng, 90, 60, 30) // 5400 vertices: six chunks at DefaultParallelGrain
		raceFixture.h = ch.Build(g, ch.Options{Workers: 1})
		raceFixture.n = g.NumVertices()
		raceFixture.d = sssp.NewDijkstra(g, pq.KindBinaryHeap)
	})
	return raceFixture.h, raceFixture.n
}

// poolSplitsSweep asserts the fixture actually triggers parallel work:
// one TreeParallel must run on the pool and claim more chunks than it
// ran sweeps, or the sequential fallback hides the workers and the race
// test is vacuous.
func poolSplitsSweep(t *testing.T, e *Engine) {
	t.Helper()
	before := e.SchedStats()
	e.TreeParallel(0)
	after := e.SchedStats()
	if sweeps, chunks := after.Sweeps-before.Sweeps, after.Chunks-before.Chunks; chunks <= sweeps {
		t.Fatalf("one TreeParallel ran %d pooled sweeps over %d chunks; the pool never splits the sweep and the race test is vacuous", sweeps, chunks)
	}
}

// TestTreeParallelBarrierRace drives the single-tree parallel sweep with
// 4 workers and verifies labels against Dijkstra; under -race this
// exercises the chunk handoff between pool workers.
func TestTreeParallelBarrierRace(t *testing.T) {
	h, n := raceHierarchy(t)
	e, err := NewEngine(h, Options{Workers: 4, ParallelGrain: DefaultParallelGrain})
	if err != nil {
		t.Fatal(err)
	}
	poolSplitsSweep(t, e)
	rng := rand.New(rand.NewSource(51))
	trees := 6
	if testing.Short() {
		trees = 2
	}
	for q := 0; q < trees; q++ {
		s := int32(rng.Intn(n))
		e.TreeParallel(s)
		raceFixture.d.Run(s)
		for v := int32(0); v < int32(n); v += 7 {
			if got, want := e.Dist(v), raceFixture.d.Dist(v); got != want {
				t.Fatalf("src %d: dist(%d)=%d, want %d", s, v, got, want)
			}
		}
	}
}

// TestMultiTreeParallelBarrierRace does the same for the k-lane parallel
// sweep.
func TestMultiTreeParallelBarrierRace(t *testing.T) {
	h, n := raceHierarchy(t)
	e, err := NewEngine(h, Options{Workers: 4, ParallelGrain: DefaultParallelGrain})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	for _, k := range []int{4, 8} {
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		e.MultiTreeParallel(sources, false)
		for i, s := range sources {
			raceFixture.d.Run(s)
			for v := int32(0); v < int32(n); v += 11 {
				if got, want := e.MultiDist(i, v), raceFixture.d.Dist(v); got != want {
					t.Fatalf("k=%d lane %d src %d: dist(%d)=%d, want %d", k, i, s, v, got, want)
				}
			}
		}
	}
}

// TestParallelSweepsAcrossClones runs parallel sweeps simultaneously on
// several clones of one shared hierarchy — per-source parallelism
// (Section V) stacked on intra-level parallelism — so -race watches
// worker goroutines of different engines interleave over the shared
// immutable graphs.
func TestParallelSweepsAcrossClones(t *testing.T) {
	h, n := raceHierarchy(t)
	proto, err := NewEngine(h, Options{Workers: 4, ParallelGrain: DefaultParallelGrain})
	if err != nil {
		t.Fatal(err)
	}
	clones := 4
	trees := 4
	if testing.Short() {
		trees = 2
	}
	var wg sync.WaitGroup
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e := proto.Clone()
			rng := rand.New(rand.NewSource(int64(60 + c)))
			want := make([]uint32, n)
			for q := 0; q < trees; q++ {
				if q%2 == 0 {
					s := int32(rng.Intn(n))
					e.TreeParallel(s)
					e.CopyDistances(want)
					if want[s] != 0 {
						t.Errorf("clone %d: dist(source)=%d", c, want[s])
						return
					}
				} else {
					sources := []int32{int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
					e.MultiTreeParallel(sources, false)
					for i, s := range sources {
						e.CopyLaneDistances(i, want)
						if want[s] != 0 {
							t.Errorf("clone %d lane %d: dist(source)=%d", c, i, want[s])
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
