package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"phast/internal/graph"
	"phast/internal/sched"
)

// Differential suite for the persistent sweep scheduler: every kernel
// family must produce the same labels pooled as sequentially, in the
// Section III reference sweep and in Dijkstra — across all three sweep
// modes and k ∈ {1, 4, 16}.

func TestPooledSweepDifferential(t *testing.T) {
	h, n := raceHierarchy(t)
	rng := rand.New(rand.NewSource(71))
	for _, mode := range allModes {
		opt := Options{Mode: mode, Workers: 4, ParallelGrain: 512}
		pooled, err := NewEngine(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewEngine(h, Options{Mode: mode, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}

		// Single tree, against every oracle.
		s := int32(rng.Intn(n))
		pooled.TreeParallel(s)
		seq.Tree(s)
		raceFixture.d.Run(s)
		ref := referenceDist(seq, s)
		for v := int32(0); v < int32(n); v += 7 {
			want := raceFixture.d.Dist(v)
			if ref[v] != want {
				t.Fatalf("mode=%v: reference dist(%d)=%d, Dijkstra %d", mode, v, ref[v], want)
			}
			if got := pooled.Dist(v); got != want {
				t.Fatalf("mode=%v: pooled dist(%d)=%d, Dijkstra %d", mode, v, got, want)
			}
			if got := seq.Dist(v); got != want {
				t.Fatalf("mode=%v: sequential dist(%d)=%d, Dijkstra %d", mode, v, got, want)
			}
		}

		// Parents: distances must match, and every parallel-computed
		// path must be tight (its arc weights sum to the label).
		s2 := int32(rng.Intn(n))
		pooled.TreeWithParentsParallel(s2)
		seq.TreeWithParents(s2)
		g := h.G
		for i := 0; i < 25; i++ {
			v := int32(rng.Intn(n))
			want := seq.Dist(v)
			if got := pooled.Dist(v); got != want {
				t.Fatalf("mode=%v parents: pooled dist(%d)=%d, want %d", mode, v, got, want)
			}
			path := pooled.PathTo(v)
			if path == nil {
				if want != graph.Inf {
					t.Fatalf("mode=%v: no path to reachable %d", mode, v)
				}
				continue
			}
			var sum uint32
			for j := 1; j < len(path); j++ {
				w, ok := g.FindArc(path[j-1], path[j])
				if !ok {
					t.Fatalf("mode=%v: path step %d→%d is not an arc", mode, path[j-1], path[j])
				}
				sum += w
			}
			if sum != want {
				t.Fatalf("mode=%v: path to %d weighs %d, dist %d", mode, v, sum, want)
			}
		}

		// Multi-tree.
		for _, k := range []int{1, 4, 16} {
			sources := make([]int32, k)
			for i := range sources {
				sources[i] = int32(rng.Intn(n))
			}
			pooled.MultiTreeParallel(sources, false)
			seq.MultiTree(sources, false)
			for i := range sources {
				for v := int32(0); v < int32(n); v += 13 {
					want := seq.MultiDist(i, v)
					if got := pooled.MultiDist(i, v); got != want {
						t.Fatalf("mode=%v k=%d lane %d: pooled dist(%d)=%d, want %d",
							mode, k, i, v, got, want)
					}
				}
			}
		}
	}
}

// TestPooledRankOrderRunsParallel pins the capability the barrier relax
// bought: descending rank order has no level ranges to barrier between,
// yet the dependency-bounded scheduler parallelizes it.
func TestPooledRankOrderRunsParallel(t *testing.T) {
	h, n := raceHierarchy(t)
	pooled, err := NewEngine(h, Options{Mode: SweepRankOrder, Workers: 4, ParallelGrain: DefaultParallelGrain})
	if err != nil {
		t.Fatal(err)
	}
	s := int32(42)
	pooled.TreeParallel(s)
	raceFixture.d.Run(s)
	for v := int32(0); v < int32(n); v += 7 {
		if got, want := pooled.Dist(v), raceFixture.d.Dist(v); got != want {
			t.Fatalf("rank-order pooled dist(%d)=%d, want %d", v, got, want)
		}
	}
	if st := pooled.SchedStats(); st.Sweeps != 1 || st.Chunks == 0 {
		t.Fatalf("pooled rank-order sweep did not run on the scheduler: %+v", st)
	}
}

// TestParallelGrainOption checks the grain knob reaches the scheduler:
// chunk counts follow ceil(n/grain), labels stay exact, and a bogus
// grain is rejected at engine construction.
func TestParallelGrainOption(t *testing.T) {
	h, n := raceHierarchy(t)
	const grain = 64
	e, err := NewEngine(h, Options{Workers: 4, ParallelGrain: grain})
	if err != nil {
		t.Fatal(err)
	}
	s := int32(7)
	e.TreeParallel(s)
	raceFixture.d.Run(s)
	for v := int32(0); v < int32(n); v += 11 {
		if got, want := e.Dist(v), raceFixture.d.Dist(v); got != want {
			t.Fatalf("grain=%d: dist(%d)=%d, want %d", grain, v, got, want)
		}
	}
	wantChunks := uint64((n + grain - 1) / grain)
	if st := e.SchedStats(); st.Sweeps != 1 || st.Chunks != wantChunks {
		t.Fatalf("grain=%d: stats %+v, want 1 sweep over %d chunks", grain, st, wantChunks)
	}
	if _, err := NewEngine(h, Options{Workers: 4, ParallelGrain: -8}); err == nil {
		t.Fatal("negative ParallelGrain accepted")
	}
}

// TestSetWorkersResize exercises live pool resizing between queries in
// both directions, including shrinking to the sequential fallback.
func TestSetWorkersResize(t *testing.T) {
	h, n := raceHierarchy(t)
	e, err := NewEngine(h, Options{Workers: 2, ParallelGrain: DefaultParallelGrain})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		s := int32(311)
		e.TreeParallel(s)
		raceFixture.d.Run(s)
		for v := int32(0); v < int32(n); v += 17 {
			if got, want := e.Dist(v), raceFixture.d.Dist(v); got != want {
				t.Fatalf("%s: dist(%d)=%d, want %d", label, v, got, want)
			}
		}
	}
	check("initial 2 workers")
	for _, w := range []int{6, 1, 3} {
		if err := e.SetWorkers(w); err != nil {
			t.Fatalf("SetWorkers(%d) between queries: %v", w, err)
		}
		if e.Workers() != w {
			t.Fatalf("Workers()=%d after SetWorkers(%d)", e.Workers(), w)
		}
		check("resized")
	}
	if err := e.SetWorkers(0); err != nil {
		t.Fatal(err)
	}
	if e.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetWorkers(0) set %d, want GOMAXPROCS=%d", e.Workers(), runtime.GOMAXPROCS(0))
	}
	check("gomaxprocs")
}

// TestSetWorkersRejectedDuringSweep holds a sweep in flight via the
// chunk-claim test hook and checks SetWorkers refuses to resize under
// it, then succeeds once the sweep drains.
func TestSetWorkersRejectedDuringSweep(t *testing.T) {
	h, _ := raceHierarchy(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	// Installed before NewEngine spawns the pool, so every worker's read
	// of the hook happens-after this write.
	sched.TestHookChunkClaimed = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	defer func() { sched.TestHookChunkClaimed = nil }()
	// Pin the grain: the fixture must span several chunks so the hook
	// actually fires (the cache-budget default may fuse it into one).
	e, err := NewEngine(h, Options{Workers: 2, ParallelGrain: DefaultParallelGrain})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		//phastlint:ignore engineshare the hook wedges this sweep; the main goroutine only calls SetWorkers (resize-lock protected) until <-done orders the rest
		e.TreeParallel(0)
		close(done)
	}()
	<-entered
	if err := e.SetWorkers(4); err == nil {
		t.Error("SetWorkers succeeded while a sweep was in flight")
	}
	close(release)
	<-done
	if err := e.SetWorkers(4); err != nil {
		t.Fatalf("SetWorkers after the sweep drained: %v", err)
	}
	if e.Workers() != 4 {
		t.Fatalf("Workers()=%d, want 4", e.Workers())
	}
}

// TestSchedulerStressWithResizes interleaves parallel single-, parents-
// and multi-tree sweeps on clones of one shared engine while another
// goroutine hammers SetWorkers — for the race detector, and to check
// rejected resizes never corrupt a sweep.
func TestSchedulerStressWithResizes(t *testing.T) {
	h, n := raceHierarchy(t)
	proto, err := NewEngine(h, Options{Workers: 3, ParallelGrain: DefaultParallelGrain})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var resizer sync.WaitGroup
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		for w := 0; ; w++ {
			select {
			case <-stop:
				return
			default:
			}
			//phastlint:ignore engineshare SetWorkers is the one concurrency-safe engine method (resize lock); the stress point is exactly this sharing
			_ = proto.SetWorkers(2 + w%4) // rejection under load is expected
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	clones := 3
	queries := 6
	if testing.Short() {
		queries = 3
	}
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e := proto.Clone()
			rng := rand.New(rand.NewSource(int64(90 + c)))
			buf := make([]uint32, n)
			for q := 0; q < queries; q++ {
				s := int32(rng.Intn(n))
				switch q % 3 {
				case 0:
					e.TreeParallel(s)
				case 1:
					e.TreeWithParentsParallel(s)
				case 2:
					sources := []int32{s, int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
					e.MultiTreeParallel(sources, q%2 == 0)
					for i, src := range sources {
						e.CopyLaneDistances(i, buf)
						if buf[src] != 0 {
							t.Errorf("clone %d lane %d: dist(source %d)=%d", c, i, src, buf[src])
							return
						}
					}
					continue
				}
				e.CopyDistances(buf)
				if buf[s] != 0 {
					t.Errorf("clone %d: dist(source %d)=%d", c, s, buf[s])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	resizer.Wait()
	if st := proto.SchedStats(); st.Sweeps == 0 || st.Chunks == 0 {
		t.Fatalf("stress ran no pooled sweeps: %+v", st)
	}
}
