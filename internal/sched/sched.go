// Package sched is the persistent dependency-bounded chunk scheduler
// that PR 5 introduced inside internal/core, extracted so that other
// bulk passes over the contraction order — notably the CCH-style metric
// customization in internal/ch — can reuse the same parked worker pool
// without an import cycle (core imports ch, so ch cannot import core).
//
// The design is unchanged from the in-core version:
//
//   - A pool of long-lived workers is spawned once and parked on a
//     channel between jobs. Everything sharing the pool (engine clones,
//     a customization pass) wakes the same parked workers.
//   - A job is divided into chunks claimed in increasing order through
//     an atomic cursor — no per-level partitioning, no barrier.
//   - Chunk c may start once the monotone completed-chunk frontier has
//     passed Dep[c], a precomputed bound on the last chunk any of its
//     external dependencies lives in. Intra-chunk dependencies are
//     satisfied by the chunk's in-order scan.
//
// Deadlock freedom: the cursor hands out chunks in increasing order, so
// the lowest claimed-but-incomplete chunk is always the frontier chunk
// itself, whose dependency bound (necessarily below it) is satisfied —
// its owner never stalls, so the frontier always advances.
//
// Memory ordering: a completing worker publishes its chunk's writes by
// the atomic done-flag store + frontier CAS; a starting worker observes
// frontier > Dep[c] before reading any external data. Both are
// sync/atomic operations, so every write of a completed chunk
// happens-before the reads of any chunk that observed its completion.
//
// New relative to the in-core version: the pool is reference counted.
// Metric customization produces sibling engines that share one pool
// across several metric epochs, so a single finalizer-driven shutdown
// is no longer enough — each shared state Retains the pool and the
// workers retire when the last reference Releases it.
package sched

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Stats is a snapshot of the pool's counters, accumulated across every
// job submitter sharing the pool.
type Stats struct {
	// Sweeps is the number of jobs executed on the pool (sequential
	// passes are not counted).
	Sweeps uint64
	// Chunks is the number of chunks claimed and scanned, across all
	// workers including the submitting goroutine.
	Chunks uint64
	// Stalls counts chunk starts that had to wait for the completion
	// frontier to pass their dependency bound. High stall counts mean
	// the grain is too coarse for the dependency structure.
	Stalls uint64
	// Idle counts assist invitations that arrived after their job had
	// already finished (the worker woke up, found nothing to do, and
	// parked again). A busy pool keeps this near zero.
	Idle uint64
}

// Pool is the persistent worker pool. Workers reference only the pool —
// never the submitter's state — so dropping every reference makes the
// submitters collectable and their finalizers can retire the workers (a
// goroutine parked on a channel receive is a GC root and would
// otherwise live forever).
type Pool struct {
	jobs    chan *Job
	assists atomic.Int32 // parked assist goroutines (workers - 1)
	workers atomic.Int32 // logical worker count, assists + 1
	refs    atomic.Int32 // Retain/Release count; 0 retires the workers
	once    sync.Once    // guards shutdown

	// resizeMu makes Resize and running jobs mutually exclusive: jobs
	// hold the read side, a resize try-locks the write side and rejects
	// (rather than blocks) while any job is in flight.
	resizeMu sync.RWMutex

	sweeps atomic.Uint64
	chunks atomic.Uint64
	stalls atomic.Uint64
	idle   atomic.Uint64
}

// poolInviteCap bounds the invitation channel. Parked workers drain it
// immediately, so the capacity only needs to cover a transient burst of
// invitations from concurrent submitters.
const poolInviteCap = 256

// NewPool creates a pool of the given logical worker count (w <= 0
// selects GOMAXPROCS): w-1 assist goroutines are spawned parked, the
// submitting goroutine is the w-th worker. The pool starts with one
// reference; Release it (or let a finalizer do so) to retire the
// workers.
func NewPool(w int) *Pool {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan *Job, poolInviteCap)}
	p.refs.Store(1)
	p.workers.Store(int32(w))
	p.grow(w - 1)
	return p
}

// Retain adds a reference to the pool, keeping its workers alive until
// a matching Release.
func (p *Pool) Retain() { p.refs.Add(1) }

// Release drops a reference; the last one retires every worker.
func (p *Pool) Release() {
	if p.refs.Add(-1) == 0 {
		p.once.Do(func() { close(p.jobs) })
	}
}

// Workers returns the current logical worker count.
func (p *Pool) Workers() int { return int(p.workers.Load()) }

// Resize changes the worker count at runtime; w <= 0 selects
// GOMAXPROCS. The resize only happens between jobs: if any job is in
// flight on the pool, Resize changes nothing and returns an error.
func (p *Pool) Resize(w int) error {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if !p.resizeMu.TryLock() {
		return errors.New("sched: resize rejected: a job is in flight")
	}
	defer p.resizeMu.Unlock()
	cur := int(p.workers.Load())
	switch {
	case w > cur:
		p.grow(w - cur)
	case w < cur:
		p.shrink(cur - w)
	}
	p.workers.Store(int32(w))
	return nil
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Sweeps: p.sweeps.Load(),
		Chunks: p.chunks.Load(),
		Stalls: p.stalls.Load(),
		Idle:   p.idle.Load(),
	}
}

// grow spawns additional parked assist workers.
func (p *Pool) grow(n int) {
	for i := 0; i < n; i++ {
		p.assists.Add(1)
		go p.worker()
	}
}

// shrink retires n parked workers by feeding them nil sentinels. Only
// called with no job in flight (Resize holds the resize lock), so every
// live worker is parked on the channel and consumes promptly.
func (p *Pool) shrink(n int) {
	for i := 0; i < n; i++ {
		p.assists.Add(-1)
		p.jobs <- nil
	}
}

// worker is one parked pool goroutine: it sleeps on the invitation
// channel and assists whatever job wakes it. A nil invitation or a
// closed channel retires it.
func (p *Pool) worker() {
	for job := range p.jobs {
		if job == nil {
			return
		}
		job.assist(p)
	}
}

// invite enqueues up to n invitations for j without ever blocking: if
// the channel is momentarily full the submitter simply keeps more of
// the job for itself.
func (p *Pool) invite(j *Job, n int) {
	for i := 0; i < n; i++ {
		select {
		case p.jobs <- j:
		default:
			return
		}
	}
}

// Job is one submitter's reusable scheduler state: the chunk-scan
// callback, the dependency bounds, and the cursor/frontier/done flags
// of the run in flight. It is reset and reopened by every Pool.Run;
// assist workers holding a stale invitation observe open == false (or
// join the submitter's next run, which is equally correct) and back
// out. A Job must not be submitted concurrently with itself.
type Job struct {
	// Scan processes chunk c. It is called exactly once per chunk per
	// run, possibly from several goroutines for different chunks, and
	// only after the completion frontier has passed Dep[c].
	Scan func(c int32)
	// Dep[c] is the chunk index the completion frontier must pass
	// before chunk c may start (-1: no external dependency). Dep[c]
	// must be < c.
	Dep []int32
	// NumChunks is the number of chunks this run claims.
	NumChunks int32

	open     atomic.Bool
	active   atomic.Int32    // assist workers currently inside run
	cursor   atomic.Int32    // next chunk to claim
	frontier atomic.Int32    // chunks [0,frontier) are complete
	done     []atomic.Uint32 // per-chunk completion flags (typed: every access is atomic)
}

// TestHookChunkClaimed, when non-nil, runs after every chunk claim.
// Tests use it to hold a run in flight deterministically (for the
// Resize rejection path); it must only be set while no job runs.
var TestHookChunkClaimed func()

// assist is the pool-worker side of a run: join if the job is still
// open, and make the membership visible through active so the submitter
// can wait for stragglers before reusing the job.
func (j *Job) assist(p *Pool) {
	if !j.open.Load() {
		p.idle.Add(1)
		return
	}
	j.active.Add(1)
	// Re-check after announcing ourselves: the submitter may have closed
	// the job between the first load and the Add. If it reopened for a
	// new run instead, joining that run is legitimate — the job's fields
	// were reset before open was stored.
	if j.open.Load() {
		j.run(p)
	} else {
		p.idle.Add(1)
	}
	j.active.Add(-1)
}

// run claims and scans chunks until the cursor is exhausted. Both the
// submitting goroutine and assist workers execute this same loop.
//
//phast:hotpath
func (j *Job) run(p *Pool) {
	nc := int32(len(j.done))
	dep := j.Dep
	for {
		c := j.cursor.Add(1) - 1
		if c >= nc {
			return
		}
		if TestHookChunkClaimed != nil {
			TestHookChunkClaimed()
		}
		p.chunks.Add(1)
		if d := dep[c]; d >= 0 && j.frontier.Load() <= d {
			p.stalls.Add(1)
			for j.frontier.Load() <= d {
				runtime.Gosched()
			}
		}
		j.Scan(c)
		j.done[c].Store(1)
		// Advance the frontier over every consecutively completed chunk.
		// Any worker may push it past chunks completed out of order; a
		// failed CAS means someone else already did.
		for {
			f := j.frontier.Load()
			if f >= nc || j.done[f].Load() == 0 {
				break
			}
			j.frontier.CompareAndSwap(f, f+1)
		}
	}
}

// Run executes one job on the pool. It resets and opens the job,
// invites parked workers, works the cursor itself, and returns only
// after the frontier covers every chunk and all assist workers have
// left the job (so the job can be reused by the next run).
func (p *Pool) Run(j *Job) {
	p.resizeMu.RLock()
	defer p.resizeMu.RUnlock()
	nc := int(j.NumChunks)
	if cap(j.done) < nc {
		j.done = make([]atomic.Uint32, nc)
	} else {
		j.done = j.done[:nc]
		for i := range j.done {
			j.done[i].Store(0)
		}
	}
	j.cursor.Store(0)
	j.frontier.Store(0)
	j.open.Store(true)
	p.sweeps.Add(1)
	if a := int(p.assists.Load()); a > 0 {
		want := nc - 1
		if a < want {
			want = a
		}
		p.invite(j, want)
	}
	j.run(p)
	for j.frontier.Load() < int32(nc) {
		runtime.Gosched()
	}
	j.open.Store(false)
	for j.active.Load() != 0 {
		runtime.Gosched()
	}
}
