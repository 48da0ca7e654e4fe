package core

import (
	"phast/internal/sched"
)

// The persistent sweep scheduler, which replaces Section V's per-level
// fork-join, lives in internal/sched: ch.Topology.Customize runs its
// triangle-relaxation pass over the contraction order on the very same
// parked worker pool, and core imports ch, so the pool cannot live
// here. This file is the thin engine-side shim: kernel-family dispatch
// and the Engine methods that proxy the shared pool.
//
// The scheduling design is documented in internal/sched: chunks of
// sweep positions claimed in order through an atomic cursor, started
// once the monotone completion frontier passes their precomputed
// dependency bound ((*graph.Packed).ChunkDepBoundsAt), with the
// done-flag store + frontier CAS providing the happens-before edge
// between a chunk's label writes and its dependents' reads.

// sweepKind names one kernel, one per tree family: single tree,
// single tree with G+ parents, and k trees. Each kind has one chunk
// kernel, which the sequential sweep runs over [0,n) and the
// scheduler's workers run per chunk (scanChunkKind).
type sweepKind int

const (
	packedSingle sweepKind = iota
	packedParents
	packedMulti
)

// SchedStats is a snapshot of the persistent scheduler's counters,
// accumulated across every engine clone (and every customized sibling
// engine) sharing the pool.
type SchedStats struct {
	// Sweeps is the number of sweeps executed on the pooled scheduler
	// (sequential sweeps are not counted; customization passes running
	// on the same pool are).
	Sweeps uint64
	// Chunks is the number of chunks claimed and scanned, across all
	// workers including the submitting goroutine.
	Chunks uint64
	// Stalls counts chunk starts that had to wait for the completion
	// frontier to pass their dependency bound. High stall counts mean
	// the grain is too coarse for the hierarchy's dependency structure.
	Stalls uint64
	// Idle counts assist invitations that arrived after their sweep had
	// already finished (the worker woke up, found nothing to do, and
	// parked again). A busy server keeps this near zero.
	Idle uint64
}

// runPooled executes one sweep of the given kind on the persistent
// scheduler.
func (e *Engine) runPooled(kind sweepKind, k int) {
	s := e.s
	j := e.job
	if j == nil {
		j = &sched.Job{}
		e.job = j
	}
	starts := s.chunkStart
	j.NumChunks = s.numChunks
	j.Dep = s.chunkDep
	j.Scan = func(c int32) {
		e.scanChunkKind(kind, k, starts[c], starts[c+1])
	}
	s.pool.Run(j)
}

// parallelSweep runs one sweep of the given kind on the persistent
// scheduler and reports whether it did; false means the caller must
// scan [0,n) itself (single worker, or a sweep smaller than one chunk).
func (e *Engine) parallelSweep(kind sweepKind, k int) bool {
	if e.s.pool.Workers() <= 1 || e.s.numChunks <= 1 {
		return false
	}
	e.runPooled(kind, k)
	return true
}

// SetWorkers changes the sweep worker count at runtime for this engine
// and every clone or customized sibling sharing its pool. w <= 0
// selects GOMAXPROCS. The resize only happens between queries: if any
// sharing engine has a parallel sweep (or customization pass) in
// flight, SetWorkers changes nothing and returns an error.
func (e *Engine) SetWorkers(w int) error {
	return e.s.pool.Resize(w)
}

// Workers returns the current sweep worker count (shared by clones).
func (e *Engine) Workers() int { return e.s.pool.Workers() }

// SchedStats returns a snapshot of the persistent scheduler's counters,
// accumulated across all engines sharing this pool.
func (e *Engine) SchedStats() SchedStats {
	st := e.s.pool.Stats()
	return SchedStats{
		Sweeps: st.Sweeps,
		Chunks: st.Chunks,
		Stalls: st.Stalls,
		Idle:   st.Idle,
	}
}

// SchedPool exposes the engine's persistent worker pool so other bulk
// passes over the same preprocessed data — ch.Topology.Customize in
// particular — can run on the parked workers instead of spawning their
// own. The pool stays owned by the engine's shared state; callers must
// not Release it.
func (e *Engine) SchedPool() *sched.Pool { return e.s.pool }

// scanChunkKind runs the kernel of kind over sweep positions [lo,hi).
// Shared by the sequential sweep ([0,n)) and the pooled scheduler (per
// chunk).
//
//phast:hotpath
func (e *Engine) scanChunkKind(kind sweepKind, k int, lo, hi int32) {
	switch kind {
	case packedSingle:
		e.scanPackedChunk(lo, hi)
	case packedParents:
		e.scanPackedParentsChunk(lo, hi)
	case packedMulti:
		e.scanPackedMultiChunk(lo, hi, k)
	}
}
