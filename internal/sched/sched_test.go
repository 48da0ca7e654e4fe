package sched

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// flagJob is a Job whose Scan records completion in its own atomic
// flags and checks, before marking chunk c done, that every chunk up to
// Dep[c] had already completed: the happens-before edge the scheduler
// promises its kernels. It also counts how often each chunk ran.
type flagJob struct {
	Job
	fin        []atomic.Bool
	calls      []atomic.Int32
	violations atomic.Int32
}

func newFlagJob(dep []int32) *flagJob {
	n := len(dep)
	fj := &flagJob{fin: make([]atomic.Bool, n), calls: make([]atomic.Int32, n)}
	fj.Dep = dep
	fj.NumChunks = int32(n)
	fj.Scan = func(c int32) {
		fj.calls[c].Add(1)
		if c%4 == 0 {
			runtime.Gosched() // let other workers overtake this chunk
		}
		for i := int32(0); i <= fj.Dep[c]; i++ {
			if !fj.fin[i].Load() {
				fj.violations.Add(1)
			}
		}
		fj.fin[c].Store(true)
	}
	return fj
}

// reset clears the flags between runs of the same job.
func (fj *flagJob) reset() {
	for i := range fj.fin {
		fj.fin[i].Store(false)
		fj.calls[i].Store(0)
	}
}

// check fails unless the last run scanned every chunk exactly once with
// no chunk starting before its dependencies completed.
func (fj *flagJob) check(t *testing.T, what string) {
	t.Helper()
	if v := fj.violations.Load(); v != 0 {
		t.Fatalf("%s: %d chunk starts preceded a dependency's completion", what, v)
	}
	for c := range fj.calls {
		if n := fj.calls[c].Load(); n != 1 {
			t.Fatalf("%s: chunk %d scanned %d times, want 1", what, c, n)
		}
	}
}

// randomDeps returns n dependency bounds with Dep[c] drawn from [-1, c).
func randomDeps(rng *rand.Rand, n int) []int32 {
	dep := make([]int32, n)
	for c := range dep {
		dep[c] = int32(rng.Intn(c+1)) - 1
	}
	return dep
}

func TestDependencyProtocol(t *testing.T) {
	p := NewPool(4)
	defer p.Release()
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		fj := newFlagJob(randomDeps(rng, 64))
		p.Run(&fj.Job)
		fj.check(t, "run")
	}
}

func TestZeroAndOneChunk(t *testing.T) {
	p := NewPool(4)
	defer p.Release()
	empty := newFlagJob(nil)
	p.Run(&empty.Job)
	if st := p.Stats(); st.Sweeps != 1 || st.Chunks != 0 {
		t.Fatalf("empty job: stats %+v, want 1 sweep and 0 chunks", st)
	}
	one := newFlagJob([]int32{-1})
	p.Run(&one.Job)
	one.check(t, "one chunk")
	if st := p.Stats(); st.Sweeps != 2 || st.Chunks != 1 {
		t.Fatalf("one-chunk job: stats %+v, want 2 sweeps and 1 chunk", st)
	}
}

func TestResizeBetweenRuns(t *testing.T) {
	p := NewPool(2)
	defer p.Release()
	rng := rand.New(rand.NewSource(2))
	fj := newFlagJob(randomDeps(rng, 32))
	for _, w := range []int{4, 1, 8, 3} {
		if err := p.Resize(w); err != nil {
			t.Fatalf("Resize(%d): %v", w, err)
		}
		if got := p.Workers(); got != w {
			t.Fatalf("Workers()=%d after Resize(%d)", got, w)
		}
		if got := int(p.assists.Load()); got != w-1 {
			t.Fatalf("%d assist workers after Resize(%d), want %d", got, w, w-1)
		}
		fj.reset()
		p.Run(&fj.Job)
		fj.check(t, "after resize")
	}
}

func TestResizeRejectedDuringRun(t *testing.T) {
	p := NewPool(2)
	defer p.Release()
	claimed := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	TestHookChunkClaimed = func() {
		once.Do(func() {
			close(claimed)
			<-release
		})
	}
	defer func() { TestHookChunkClaimed = nil }()
	fj := newFlagJob(make([]int32, 8))
	for c := range fj.Dep {
		fj.Dep[c] = -1
	}
	finished := make(chan struct{})
	go func() {
		p.Run(&fj.Job)
		close(finished)
	}()
	<-claimed
	if err := p.Resize(4); err == nil {
		t.Error("Resize accepted while a run was in flight")
	}
	if got := p.Workers(); got != 2 {
		t.Errorf("Workers()=%d after a rejected resize, want 2", got)
	}
	close(release)
	<-finished
	fj.check(t, "held run")
	if err := p.Resize(4); err != nil {
		t.Fatalf("Resize after the run: %v", err)
	}
}

func TestStatsAdvancePerRun(t *testing.T) {
	p := NewPool(3)
	defer p.Release()
	rng := rand.New(rand.NewSource(3))
	for run, n := range []int{5, 17, 64, 1} {
		before := p.Stats()
		fj := newFlagJob(randomDeps(rng, n))
		p.Run(&fj.Job)
		after := p.Stats()
		if after.Sweeps != before.Sweeps+1 {
			t.Fatalf("run %d: Sweeps %d -> %d, want +1", run, before.Sweeps, after.Sweeps)
		}
		if after.Chunks != before.Chunks+uint64(n) {
			t.Fatalf("run %d: Chunks %d -> %d, want +%d", run, before.Chunks, after.Chunks, n)
		}
	}
}
