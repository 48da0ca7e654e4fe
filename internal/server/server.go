// Package server is the concurrent serving layer over the PHAST core
// engine: a goroutine-safe TreeServer that owns a pool of cloned
// core.Engine cursors over one shared hierarchy and batches concurrent
// tree requests into multi-source sweeps.
//
// The design follows the paper's throughput argument directly. A single
// PHAST tree is bandwidth-bound on the linear sweep; Section IV-B shows
// that sweeping k sources at once amortizes that bandwidth because the k
// labels of a vertex are contiguous and the downward arcs are read once
// per batch instead of once per tree. A dispatcher goroutine collects
// concurrent requests into batches of up to MaxBatch sources, hands each
// batch to one of Engines executors, and fans the per-lane results back
// out to the callers. Dispatch is work-conserving: requests pile up into
// a batch only while every executor is busy, and an idle executor
// receives the pending batch at once, so a lone request is swept alone
// and without delay. No timer holds a batch open; QueryMany submits its
// sources in whole chunks of MaxBatch, so bulk callers still get full
// k-source sweeps. Each executor sweeps its batch with the sequential
// MultiTree on its own goroutine: with many sources in flight, the
// paper gives each core its own sources (Section V), and the executors
// — GOMAXPROCS of them by default — are those cores, so a batch never
// waits on the chunk scheduler's dependency frontier or pays its
// hand-offs. On Linux each executor locks its goroutine to an OS
// thread and pins that thread to a CPU of its own: executor i to the
// i-th CPU the process may use, wrapping around. Left to the kernel,
// both executors' threads can settle on one CPU for a whole run while
// the other CPU idles (a host whose cpuset does not load-balance is
// one such case), and then the later of two overlapping sweeps holds
// the earlier one off the CPU for its whole length. Each sub-sweep's
// trees are copied into pooled buffers by one core.Engine.CopyLanes
// call, which de-interleaves the vertex-major labels a lane group at a
// time, so callers never alias engine state and engines are
// immediately reusable. A request's context is checked
// before the sweep and again at delivery; a request canceled in
// between was swept and copied, and its buffer goes back to the pool.
//
// # Metric epochs
//
// The server holds a registry of named metrics (DefaultMetric is the
// one New was given). Each metric's live state is an engineSet — a
// monotonically increasing epoch, the metric name, and one engine
// clone per executor — behind an atomic pointer. InstallMetric builds
// the next epoch's set off to the side and publishes it with a single
// pointer store, so a customized metric goes live mid-traffic without
// draining: batches that already loaded the old set finish on it
// (the old engines stay valid, nothing frees them), later batches see
// the new one. Every TreeResult is tagged with the epoch and metric
// name of the set that computed it. The memory-ordering contract is
// the usual publish idiom: the release store in InstallMetric makes
// every write that built the set (the cloned engines, the epoch word)
// visible to any executor whose acquire load observes the pointer.
// Engines are never shared across goroutines: executor i only ever
// touches engines[i] of whichever sets it loads.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phast/internal/core"
)

// Sentinel errors returned by Query/QueryMany.
var (
	// ErrClosed is returned once Close has begun; in-flight requests
	// still complete.
	ErrClosed = errors.New("server: closed")
	// ErrOverloaded is returned under the RejectOnFull policy when the
	// request queue is full.
	ErrOverloaded = errors.New("server: request queue full")
	// ErrUnknownMetric is returned by QueryMetric for a metric name that
	// was never installed.
	ErrUnknownMetric = errors.New("server: unknown metric")
)

// DefaultMetric is the name under which New registers the prototype
// engine's metric; Query and QueryMany always use it.
const DefaultMetric = ""

// engineSet is one published metric epoch: the engines executors sweep
// with (engines[i] belongs exclusively to executor i) plus the tags
// stamped onto every result it produces. A set is immutable once
// published.
type engineSet struct {
	epoch   uint64
	name    string
	engines []*core.Engine
}

// metricState is the registry slot of one named metric; active is
// republished wholesale on every InstallMetric.
type metricState struct {
	active atomic.Pointer[engineSet]
}

// OverloadPolicy selects what Query does when the bounded request queue
// is full.
type OverloadPolicy int

const (
	// BlockOnFull makes Query wait (respecting its context) until the
	// queue has room — backpressure by blocking, the default.
	BlockOnFull OverloadPolicy = iota
	// RejectOnFull makes Query fail fast with ErrOverloaded so callers
	// can shed load.
	RejectOnFull
)

// Options configures New. The zero value selects the defaults below.
type Options struct {
	// MaxBatch is the largest number of sources swept together (k of
	// Section IV-B). 0 selects 16, the largest k the paper's multi-tree
	// lane discussion evaluates.
	MaxBatch int
	// Engines is the number of pooled engine clones, i.e. the number of
	// batches that can be in flight at once. 0 selects GOMAXPROCS.
	Engines int
	// QueueSize bounds the request queue, counted in submissions: one
	// per Query, one per MaxBatch-source chunk of a QueryMany. 0 selects
	// 4·MaxBatch·Engines.
	QueueSize int
	// Overload selects blocking (default) or ErrOverloaded when the
	// queue is full.
	Overload OverloadPolicy
}

func (o Options) withDefaults() (Options, error) {
	if o.MaxBatch < 0 || o.Engines < 0 || o.QueueSize < 0 {
		return o, fmt.Errorf("server: negative option (MaxBatch=%d Engines=%d QueueSize=%d)",
			o.MaxBatch, o.Engines, o.QueueSize)
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	if o.Engines == 0 {
		o.Engines = runtime.GOMAXPROCS(0)
	}
	if o.QueueSize == 0 {
		o.QueueSize = 4 * o.MaxBatch * o.Engines
	}
	if o.Overload != BlockOnFull && o.Overload != RejectOnFull {
		return o, fmt.Errorf("server: unknown overload policy %d", o.Overload)
	}
	return o, nil
}

// TreeResult is one shortest-path tree computed by the server. Its
// distance buffer is private to the caller — it never aliases engine
// state — and pooled: call Release when done to recycle it.
type TreeResult struct {
	source int32
	dist   []uint32
	srv    *TreeServer
	epoch  uint64
	metric string
}

// Source returns the tree's source vertex.
func (r *TreeResult) Source() int32 { return r.source }

// Epoch returns the metric epoch that was active when this tree was
// swept. Under a concurrent InstallMetric, a caller observes either
// the old or the new epoch, never a mix within one result.
func (r *TreeResult) Epoch() uint64 { return r.epoch }

// Metric returns the name of the metric the tree was computed under.
func (r *TreeResult) Metric() string { return r.metric }

// Dist returns the distance label of vertex v (graph.Inf if unreached).
func (r *TreeResult) Dist(v int32) uint32 { return r.dist[v] }

// Distances returns all n labels indexed by original vertex ID. The
// slice is owned by the result: it is valid until Release.
func (r *TreeResult) Distances() []uint32 { return r.dist }

// Release returns the result's buffer to the server's pool. The result
// and its Distances slice must not be used afterwards. Release is
// idempotent; forgetting to call it only costs an allocation.
func (r *TreeResult) Release() {
	s := r.srv
	if s == nil {
		return
	}
	r.srv = nil
	s.resultPool.Put(r)
}

// request is one pending Query. done has capacity 1 and receives exactly
// one result (value or error) from an executor, so abandoning callers
// (context cancellation) never block the executor.
type request struct {
	ctx    context.Context
	source int32
	metric string
	done   chan result
}

type result struct {
	res *TreeResult
	err error
}

// Stats is an atomic snapshot of server counters, the first
// observability hook of the serving layer.
type Stats struct {
	// Queries is the number of results computed and delivered.
	Queries uint64
	// Rejected counts ErrOverloaded rejections (RejectOnFull only).
	Rejected uint64
	// Canceled counts requests whose context was canceled before their
	// result was delivered: checked once before the sweep, which drops
	// the request from it, and once at delivery, after the copy-out,
	// which returns its already-filled buffer to the pool.
	Canceled uint64
	// Batches is the number of multi-source sweeps executed.
	Batches uint64
	// MeanBatchOccupancy is mean sources per executed sweep (0 if none);
	// MaxBatch is the ceiling, 1 means batching never engaged.
	MeanBatchOccupancy float64
	// QueueDepth is the current number of queued requests.
	QueueDepth int
	// QueueHighWater is the maximum queue depth observed.
	QueueHighWater int
	// SweepSeconds is the total wall time executors spent inside
	// multi-source sweeps (summed across engines, so it can exceed the
	// server's elapsed time under parallel batches).
	SweepSeconds float64
	// CopySeconds is the total wall time executors spent drawing result
	// buffers from the pool and copying swept trees into them (one
	// core.Engine.CopyLanes call per sub-sweep), summed across engines
	// like SweepSeconds.
	CopySeconds float64
	// SweepBytes is the modeled memory traffic of those sweeps
	// (core.Engine.SweepBytes, k-lane aware).
	SweepBytes uint64
	// SweepGBps is the modeled achieved sweep bandwidth,
	// SweepBytes/SweepSeconds — comparable against the Section VIII-B
	// Sequential/Traversal lower bounds (see cmd/experiments -run bound).
	SweepGBps float64
	// StreamBytes is the byte footprint of the packed stream one sweep
	// scans on this server's engines — a property of the layout, not a
	// counter.
	StreamBytes uint64
	// MetricSwaps counts InstallMetric publications (the initial install
	// of the default metric included).
	MetricSwaps uint64
	// SchedSweeps/SchedChunks/SchedStalls/SchedIdle mirror the persistent
	// sweep scheduler's counters (core.SchedStats) of the worker pool the
	// server's engines share. Serving does not feed them — executors
	// sweep sequentially — so they count only pooled work others run on
	// that pool: parallel sweeps on the prototype engine or its siblings
	// and customization passes. SchedStalls is how often a worker waited
	// on the dependency frontier, SchedIdle how often a parked worker
	// woke for a sweep that had already finished.
	SchedSweeps uint64
	SchedChunks uint64
	SchedStalls uint64
	SchedIdle   uint64
	// SnapshotBytes is the on-disk size of the snapshot the server's
	// prototype engine was restored from (0 when the engine was built
	// in-process) — the resident footprint all processes mapping the
	// same file share.
	SnapshotBytes int64
	// ColdStartSeconds is how long restoring that snapshot took
	// (mapping + validation + engine assembly), 0 when not applicable.
	ColdStartSeconds float64
	// ShardQueries counts queries routed to each shard, indexed by cell
	// — populated by Sharded servers, nil on a monolithic TreeServer.
	ShardQueries []int64
}

// TreeServer batches concurrent tree queries into multi-source PHAST
// sweeps over a pool of engine clones. All methods are safe for
// concurrent use.
type TreeServer struct {
	opt Options
	n   int

	// mu serializes Query admission against Close: Query holds the read
	// lock across its enqueue so Close (write lock) cannot close the
	// requests channel mid-send.
	mu     sync.RWMutex
	closed bool
	// requests carries submissions: one request per Query, up to
	// MaxBatch per QueryMany chunk. batches is unbuffered, so a send
	// succeeds exactly when an executor is idle and waiting.
	requests chan []request
	batches  chan []request
	wg       sync.WaitGroup // dispatcher + executors
	// cpus lists the CPUs the process may run on, captured at New;
	// executor i pins its thread to cpus[i mod len(cpus)].
	cpus []int

	resultPool sync.Pool

	// metrics maps a metric name to its *metricState; epochCounter hands
	// out globally unique, monotonically increasing epochs across all
	// metrics, so a larger epoch always means "installed later".
	metrics      sync.Map
	epochCounter atomic.Uint64
	metricSwaps  atomic.Uint64

	// schedStats snapshots the scheduler counters of the shared worker
	// pool; bound to the prototype engine at New (clones share the pool,
	// so any engine's snapshot covers all of them).
	schedStats func() core.SchedStats
	// streamBytes describes the prototype engine's sweep layout (see
	// Stats.StreamBytes), captured once at New.
	streamBytes int64
	// snapBytes/coldStart carry the prototype engine's snapshot
	// provenance into Stats (zero for in-process builds).
	snapBytes int64
	coldStart time.Duration

	queries    atomic.Uint64
	rejected   atomic.Uint64
	canceled   atomic.Uint64
	batchCount atomic.Uint64
	occupancy  atomic.Uint64
	queueDepth atomic.Int64
	queueHW    atomic.Int64
	sweepNanos atomic.Uint64
	copyNanos  atomic.Uint64
	sweepBytes atomic.Uint64
}

// New starts a TreeServer over proto's preprocessed data. proto itself
// is never swept — the server clones it Engines times — so the caller
// may keep using it (from one goroutine, as usual).
func New(proto *core.Engine, opt Options) (*TreeServer, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &TreeServer{
		opt:         o,
		n:           proto.NumVertices(),
		requests:    make(chan []request, o.QueueSize),
		batches:     make(chan []request),
		cpus:        allowedCPUs(),
		schedStats:  proto.SchedStats,
		streamBytes: proto.StreamBytes(),
		snapBytes:   proto.SnapshotBytes(),
		coldStart:   proto.ColdStart(),
	}
	s.resultPool.New = func() any {
		return &TreeResult{dist: make([]uint32, s.n)}
	}
	if _, err := s.InstallMetric(DefaultMetric, proto); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.dispatch()
	for i := 0; i < o.Engines; i++ {
		s.wg.Add(1)
		go s.executor(i)
	}
	return s, nil
}

// InstallMetric clones proto into a fresh engine set and publishes it
// as the live epoch of the named metric — atomically, without pausing
// traffic. It returns the new epoch. Installing over an existing name
// swaps that metric; installing a new name makes it queryable via
// QueryMetric. proto must cover the same vertex set as the server
// (typically it is the engine of a Topology.Customize over the same
// topology); proto itself is never swept.
func (s *TreeServer) InstallMetric(name string, proto *core.Engine) (uint64, error) {
	if proto.NumVertices() != s.n {
		return 0, fmt.Errorf("server: metric %q engine has %d vertices, server %d", name, proto.NumVertices(), s.n)
	}
	set := &engineSet{name: name, engines: make([]*core.Engine, s.opt.Engines)}
	for i := range set.engines {
		set.engines[i] = proto.Clone()
	}
	st, _ := s.metrics.LoadOrStore(name, &metricState{})
	ms := st.(*metricState)
	set.epoch = s.epochCounter.Add(1)
	// Publish only forward: if a concurrent install of the same name drew
	// a later epoch and already stored it, this older set must not clobber
	// it — a metric's observable epoch never decreases.
	for {
		old := ms.active.Load()
		if old != nil && old.epoch > set.epoch {
			break
		}
		if ms.active.CompareAndSwap(old, set) {
			break
		}
	}
	s.metricSwaps.Add(1)
	return set.epoch, nil
}

// ActiveEpoch returns the currently published epoch of a metric, or
// false if the name was never installed.
func (s *TreeServer) ActiveEpoch(name string) (uint64, bool) {
	st, ok := s.metrics.Load(name)
	if !ok {
		return 0, false
	}
	set := st.(*metricState).active.Load()
	if set == nil {
		return 0, false
	}
	return set.epoch, true
}

// NumVertices returns n.
func (s *TreeServer) NumVertices() int { return s.n }

// Query computes the shortest-path tree from source, batching it with
// concurrently arriving requests. It blocks until the result is ready,
// ctx is done, or the server is closed. The returned result is a private
// copy; Release it when done.
func (s *TreeServer) Query(ctx context.Context, source int32) (*TreeResult, error) {
	return s.QueryMetric(ctx, DefaultMetric, source)
}

// QueryMetric is Query under a named metric: the tree is swept with
// whatever epoch of that metric is live when its batch executes, and
// the result's Epoch/Metric report which one that was. Unknown names
// fail with ErrUnknownMetric.
func (s *TreeServer) QueryMetric(ctx context.Context, metric string, source int32) (*TreeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if source < 0 || int(source) >= s.n {
		return nil, fmt.Errorf("server: source %d out of range [0,%d)", source, s.n)
	}
	r := request{ctx: ctx, source: source, metric: metric, done: make(chan result, 1)}
	if err := s.enqueue(ctx, []request{r}); err != nil {
		return nil, err
	}
	select {
	case res := <-r.done:
		return res.res, res.err
	case <-ctx.Done():
		// The executor will still see the canceled context and send an
		// error (or, in a narrow race, a result that the pool recycles
		// lazily via GC). Nothing blocks on our departure.
		return nil, ctx.Err()
	}
}

// QueryMany computes one tree per source. The sources are submitted in
// whole chunks of MaxBatch, so each chunk fills a sweep even when an
// executor is idle as it arrives; the last, shorter chunk may share a
// sweep with other callers' requests. Either every result is returned
// (in source order, each needing Release) or none is and an error tells
// why.
func (s *TreeServer) QueryMany(ctx context.Context, sources []int32) ([]*TreeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, src := range sources {
		if src < 0 || int(src) >= s.n {
			return nil, fmt.Errorf("server: source %d out of range [0,%d)", src, s.n)
		}
	}
	reqs := make([]request, len(sources))
	for i, src := range sources {
		reqs[i] = request{ctx: ctx, source: src, metric: DefaultMetric, done: make(chan result, 1)}
	}
	enqueued := 0
	var firstErr error
	for enqueued < len(reqs) {
		chunk := reqs[enqueued:min(enqueued+s.opt.MaxBatch, len(reqs))]
		if err := s.enqueue(ctx, chunk); err != nil {
			firstErr = err
			break
		}
		enqueued += len(chunk)
	}
	// Every enqueued request receives exactly one result even when ctx
	// is canceled or the server closes, so this collection loop always
	// terminates.
	results := make([]*TreeResult, 0, enqueued)
	for i := 0; i < enqueued; i++ {
		res := <-reqs[i].done
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		if res.res != nil {
			results = append(results, res.res)
		}
	}
	if firstErr != nil {
		for _, r := range results {
			r.Release()
		}
		return nil, firstErr
	}
	return results, nil
}

// enqueue submits sub, one to MaxBatch requests, as one queue entry.
func (s *TreeServer) enqueue(ctx context.Context, sub []request) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.opt.Overload == RejectOnFull {
		select {
		case s.requests <- sub:
		default:
			s.rejected.Add(1)
			return ErrOverloaded
		}
	} else {
		// Blocking under the read lock is the documented backpressure
		// design: Close takes the write lock only after draining, and the
		// ctx arm bounds the wait, so the read side cannot wedge it.
		//phastlint:ignore lockhold RLock held across the backpressure send by design; Close drains before taking the write lock and ctx bounds the wait
		select {
		case s.requests <- sub:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	d := s.queueDepth.Add(int64(len(sub)))
	for {
		hw := s.queueHW.Load()
		if d <= hw || s.queueHW.CompareAndSwap(hw, d) {
			return nil
		}
	}
}

// Close stops admission, drains every queued and in-flight request
// (each still receives its result), waits for the dispatcher and all
// executors to exit, and returns. Safe to call concurrently and more
// than once; Query calls racing with Close either complete normally or
// return ErrClosed.
func (s *TreeServer) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.requests)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Stats returns a snapshot of the server counters.
func (s *TreeServer) Stats() Stats {
	st := Stats{
		Queries:        s.queries.Load(),
		Rejected:       s.rejected.Load(),
		Canceled:       s.canceled.Load(),
		Batches:        s.batchCount.Load(),
		QueueDepth:     int(s.queueDepth.Load()),
		QueueHighWater: int(s.queueHW.Load()),
	}
	if st.Batches > 0 {
		st.MeanBatchOccupancy = float64(s.occupancy.Load()) / float64(st.Batches)
	}
	st.MetricSwaps = s.metricSwaps.Load()
	st.SweepSeconds = float64(s.sweepNanos.Load()) / 1e9
	st.CopySeconds = float64(s.copyNanos.Load()) / 1e9
	st.SweepBytes = s.sweepBytes.Load()
	if st.SweepSeconds > 0 {
		st.SweepGBps = float64(st.SweepBytes) / st.SweepSeconds / 1e9
	}
	st.StreamBytes = uint64(s.streamBytes)
	st.SnapshotBytes = s.snapBytes
	st.ColdStartSeconds = s.coldStart.Seconds()
	sched := s.schedStats()
	st.SchedSweeps = sched.Sweeps
	st.SchedChunks = sched.Chunks
	st.SchedStalls = sched.Stalls
	st.SchedIdle = sched.Idle
	return st
}

// dispatch collects requests into batches of up to MaxBatch sources and
// is work-conserving. It keeps one pending batch: it takes every
// submission already queued, without waiting, then either hands the
// batch to an idle executor or, while every executor is busy, receives
// the next submission into it. A batch that fills is handed over with a
// blocking send, as is the one pending when the server closes. No timer
// runs: the Go runtime sleeps whole milliseconds for a sub-millisecond
// timer once every P is idle, so a linger window delays a lone request
// far more than it says.
func (s *TreeServer) dispatch() {
	defer s.wg.Done()
	defer close(s.batches)
	pending := make([]request, 0, s.opt.MaxBatch)
	for {
		var sub []request
		ok := true
		if len(pending) == 0 {
			sub, ok = <-s.requests
		} else {
			select {
			case s.batches <- pending:
				pending = make([]request, 0, s.opt.MaxBatch)
				continue
			case sub, ok = <-s.requests:
			}
		}
	drain:
		for ok {
			pending = s.admit(pending, sub)
			select {
			case sub, ok = <-s.requests:
			default:
				break drain
			}
		}
		if !ok {
			// Closed: hand over the last pending batch, if any.
			if len(pending) > 0 {
				s.batches <- pending
			}
			return
		}
	}
}

// admit moves a submission off the queue into the pending batch. Each
// batch it fills goes to the next free executor with a blocking send;
// the returned pending batch is never full.
func (s *TreeServer) admit(pending, sub []request) []request {
	s.queueDepth.Add(-int64(len(sub)))
	testHookRequestsPopped(len(sub))
	for len(sub) > 0 {
		n := copy(pending[len(pending):s.opt.MaxBatch], sub)
		pending, sub = pending[:len(pending)+n], sub[n:]
		if len(pending) == s.opt.MaxBatch {
			s.batches <- pending
			pending = make([]request, 0, s.opt.MaxBatch)
		}
	}
	return pending
}

// testHookBatchStart runs at the top of every executor batch with the
// batch as the dispatcher formed it; tests substitute it to wedge the
// pipeline deterministically (overload and drain scenarios are
// unreachable by timing alone on a small machine) and to record batch
// sizes.
var testHookBatchStart = func(batch []request) {}

// testHookRequestsPopped runs after the dispatcher takes one submission
// of n requests off the queue; the overload tests count these to know a
// query has really advanced past the queue before they fill the next
// pipeline stage (queue depth alone cannot distinguish "not yet
// enqueued" from "already popped").
var testHookRequestsPopped = func(n int) {}

// executor serves batches until the dispatcher closes the batch
// channel. idx selects which engine of every published engineSet this
// goroutine owns: engines[idx] is touched by no other goroutine, so a
// metric swap never hands one engine to two executors. A mixed-metric
// batch (the dispatcher batches blindly) is served as one sub-sweep
// per metric; the engineSet is loaded once per sub-sweep, so all its
// results carry the epoch that actually swept them. The goroutine owns
// its OS thread, pinned to cpus[idx mod len(cpus)] until the executor
// exits (see the package doc); with one usable CPU nothing is pinned.
func (s *TreeServer) executor(idx int) {
	defer s.wg.Done()
	if len(s.cpus) > 1 {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer pinThread(s.cpus[idx%len(s.cpus)])()
	}
	sources := make([]int32, 0, s.opt.MaxBatch)
	live := make([]request, 0, s.opt.MaxBatch)
	group := make([]request, 0, s.opt.MaxBatch)
	ress := make([]*TreeResult, 0, s.opt.MaxBatch)
	bufs := make([][]uint32, 0, s.opt.MaxBatch)
	for batch := range s.batches {
		testHookBatchStart(batch)
		live = live[:0]
		for _, r := range batch {
			if err := r.ctx.Err(); err != nil {
				s.canceled.Add(1)
				r.done <- result{err: err}
				continue
			}
			live = append(live, r)
		}
		for len(live) > 0 {
			metric := live[0].metric
			group = group[:0]
			rest := 0
			for _, r := range live {
				if r.metric == metric {
					group = append(group, r)
				} else {
					live[rest] = r
					rest++
				}
			}
			live = live[:rest]

			st, ok := s.metrics.Load(metric)
			var set *engineSet
			if ok {
				set = st.(*metricState).active.Load()
			}
			if set == nil {
				for _, r := range group {
					r.done <- result{err: fmt.Errorf("%w: %q", ErrUnknownMetric, metric)}
				}
				continue
			}
			eng := set.engines[idx]
			sources = sources[:0]
			for _, r := range group {
				sources = append(sources, r.source)
			}
			sweepStart := time.Now()
			eng.MultiTree(sources, false)
			copyStart := time.Now()
			s.sweepNanos.Add(uint64(copyStart.Sub(sweepStart).Nanoseconds()))
			s.sweepBytes.Add(uint64(eng.SweepBytes(len(sources))))
			s.batchCount.Add(1)
			s.occupancy.Add(uint64(len(group)))
			ress, bufs = ress[:0], bufs[:0]
			for _, r := range group {
				res := s.resultPool.Get().(*TreeResult)
				res.srv = s
				res.source = r.source
				res.epoch = set.epoch
				res.metric = set.name
				ress = append(ress, res)
				bufs = append(bufs, res.dist)
			}
			eng.CopyLanes(bufs)
			s.copyNanos.Add(uint64(time.Since(copyStart).Nanoseconds()))
			for i, r := range group {
				res := ress[i]
				ress[i], bufs[i] = nil, nil // res now belongs to its caller or the pool
				if err := r.ctx.Err(); err != nil {
					s.canceled.Add(1)
					res.Release()
					r.done <- result{err: err}
					continue
				}
				// Count before delivering, so a caller that has its
				// result also sees it in Stats().Queries.
				s.queries.Add(1)
				r.done <- result{res: res}
			}
		}
	}
}
