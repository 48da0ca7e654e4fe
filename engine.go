package phast

import (
	"fmt"
	"io"
	"sync/atomic"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/invariant"
	"phast/internal/server"
)

// Options configures Preprocess. The zero value matches the paper's
// parameters.
type Options struct {
	// CHWorkers bounds the goroutines used during contraction-hierarchy
	// preprocessing (0 = GOMAXPROCS).
	CHWorkers int
	// SweepWorkers bounds the goroutines of TreeParallel (0 = GOMAXPROCS).
	SweepWorkers int
}

func (o *Options) coreOptions() core.Options {
	return core.Options{Workers: o.SweepWorkers}
}

// BuildStats reports what CH preprocessing did — independent-set batch
// sizes, witness-search counts, lazy re-queues, and per-phase wall time.
// See Engine.BuildStats.
type BuildStats = ch.BuildStats

// Engine answers single-source (PHAST) and point-to-point (CH) queries
// over one preprocessed graph. It is not safe for concurrent use; Clone
// gives each goroutine its own cursor over the shared preprocessed data.
type Engine struct {
	g          *Graph
	h          *ch.Hierarchy
	core       *core.Engine
	query      *ch.Query
	buildStats BuildStats

	// topo is the metric-independent customization topology, set only by
	// PreprocessCustomizable (and inherited by Customize/Clone). It is
	// what makes Customize possible: nil means this engine's hierarchy is
	// witness-pruned and metric-bound.
	topo *ch.Topology
	// metricSeq hands out hierarchy-level metric epochs; shared (by
	// pointer) among every engine derived from one topology so sibling
	// metrics never reuse an epoch.
	metricSeq *atomic.Int64

	// permutedQuery marks engines restored from a snapshot: the snapshot
	// stores only the engine-ID (level-permuted) hierarchy, so h and
	// query speak engine IDs and Query/QueryPath translate at the
	// boundary. Engines built in-process keep the original hierarchy and
	// need no translation.
	permutedQuery bool
}

// Preprocess runs contraction-hierarchy preprocessing on g and prepares
// a PHAST engine. The cost is amortized after a moderate number of tree
// computations (a few hundred; Section VIII-D reports break-even after
// 319 trees vs four-core Dijkstra). opt may be nil.
func Preprocess(g *Graph, opt *Options) (*Engine, error) {
	if opt == nil {
		opt = &Options{}
	}
	copt := opt.coreOptions()
	var bs BuildStats
	h := ch.Build(g, ch.Options{Workers: opt.CHWorkers, Stats: &bs})
	c, err := core.NewEngine(h, copt)
	if err != nil {
		return nil, fmt.Errorf("phast: %w", err)
	}
	return &Engine{g: g, h: h, core: c, query: ch.NewQuery(h), buildStats: bs}, nil
}

// PreprocessCustomizable is Preprocess in the customizable (CCH-style)
// flavor: contraction keeps every all-pairs shortcut instead of
// pruning by witness search, so the resulting hierarchy's *structure*
// is metric-independent and Customize can later rebind it to any
// weight vector in milliseconds instead of re-running contraction.
// The returned engine answers queries under g's own weights (metric
// epoch 0); derive sibling metrics from it with Customize. The
// hierarchy is larger than Preprocess's (no witness pruning), which
// is the classic CCH space-for-flexibility trade.
func PreprocessCustomizable(g *Graph, opt *Options) (*Engine, error) {
	if opt == nil {
		opt = &Options{}
	}
	copt := opt.coreOptions()
	var bs BuildStats
	topo, err := ch.BuildCustomizable(g, ch.Options{Workers: opt.CHWorkers, Stats: &bs})
	if err != nil {
		return nil, fmt.Errorf("phast: %w", err)
	}
	h := topo.Hierarchy()
	c, err := core.NewEngine(h, copt)
	if err != nil {
		return nil, fmt.Errorf("phast: %w", err)
	}
	return &Engine{g: g, h: h, core: c, query: ch.NewQuery(h), buildStats: bs,
		topo: topo, metricSeq: &atomic.Int64{}}, nil
}

// Customizable reports whether this engine was built by
// PreprocessCustomizable and therefore supports Customize.
func (e *Engine) Customizable() bool { return e.topo != nil }

// Customize rebinds the shared topology to a new weight vector
// (indexed like Graph.ArcList; graph.Inf closes an arc) and returns a
// fresh engine for the new metric. The triangle-relaxation pass runs
// on the same persistent worker pool the sweeps use, and the new
// engine shares that pool, the topology, and the sweep layout with
// its siblings — only weights are new. name labels the metric (e.g.
// "car", "truck"); the returned engine's hierarchy is stamped with it
// and a fresh epoch. The receiver remains fully usable: customization
// never mutates published state, which is what lets a server swap
// metrics mid-traffic.
func (e *Engine) Customize(name string, weights []uint32) (*Engine, error) {
	if e.topo == nil {
		return nil, fmt.Errorf("phast: engine was not built with PreprocessCustomizable")
	}
	epoch := e.metricSeq.Add(1)
	h2, err := e.topo.Customize(weights, ch.CustomizeOptions{
		Pool:  e.core.SchedPool(),
		Epoch: epoch,
		Name:  name,
	})
	if err != nil {
		return nil, fmt.Errorf("phast: %w", err)
	}
	c2, err := core.NewEngineSharingPool(e.core, h2)
	if err != nil {
		return nil, fmt.Errorf("phast: %w", err)
	}
	return &Engine{g: h2.G, h: h2, core: c2, query: ch.NewQuery(h2), buildStats: e.buildStats,
		topo: e.topo, metricSeq: e.metricSeq}, nil
}

// MetricEpoch returns the hierarchy-level epoch of this engine's
// metric: 0 for the reference metric a build produced, and the value
// stamped by Customize otherwise. (A TreeServer assigns its own,
// independent epochs at InstallMetric time.)
func (e *Engine) MetricEpoch() int64 { return e.h.MetricEpoch }

// MetricName returns the metric label passed to Customize, or "" for
// the reference metric.
func (e *Engine) MetricName() string { return e.h.MetricName }

// SaveHierarchy serializes the preprocessed contraction hierarchy
// (including the graph) so Preprocess never has to run twice for the
// same input; reload with LoadEngine.
func (e *Engine) SaveHierarchy(w io.Writer) error {
	return ch.WriteHierarchy(w, e.h)
}

// LoadEngine reconstructs an engine from a hierarchy serialized with
// SaveHierarchy, skipping preprocessing entirely. opt may be nil
// (CHWorkers is ignored — the hierarchy already exists).
func LoadEngine(r io.Reader, opt *Options) (*Engine, error) {
	if opt == nil {
		opt = &Options{}
	}
	copt := opt.coreOptions()
	h, err := ch.ReadHierarchy(r)
	if err != nil {
		return nil, err
	}
	c, err := core.NewEngine(h, copt)
	if err != nil {
		return nil, fmt.Errorf("phast: %w", err)
	}
	return &Engine{g: h.G, h: h, core: c, query: ch.NewQuery(h)}, nil
}

// Clone returns an engine sharing all preprocessed data but owning
// private per-query buffers, for concurrent use from another goroutine.
func (e *Engine) Clone() *Engine {
	return &Engine{g: e.g, h: e.h, core: e.core.Clone(), query: ch.NewQuery(e.h), buildStats: e.buildStats,
		topo: e.topo, metricSeq: e.metricSeq, permutedQuery: e.permutedQuery}
}

// BuildStats returns the preprocessing counters recorded when this
// engine was built with Preprocess: contraction batch sizes, witness
// searches, and per-phase wall time. Engines restored with LoadEngine
// (no preprocessing ran) report the zero value.
func (e *Engine) BuildStats() BuildStats { return e.buildStats }

// Graph returns the original graph.
func (e *Engine) Graph() *Graph { return e.g }

// NumVertices returns n.
func (e *Engine) NumVertices() int { return e.g.NumVertices() }

// NumShortcuts returns the number of shortcut arcs the preprocessing
// added.
func (e *Engine) NumShortcuts() int { return e.h.NumShortcuts }

// NumLevels returns the number of CH levels (Figure 1's x-axis).
func (e *Engine) NumLevels() int { return int(e.h.MaxLevel) + 1 }

// LevelSizes returns the number of vertices on each level.
func (e *Engine) LevelSizes() []int { return e.h.LevelSizes() }

// CheckedBuild reports whether this binary was compiled with the
// phastdebug build tag, which turns CheckInvariants and the other
// internal/invariant validators into deep structural checks. In a
// release build they are no-ops.
const CheckedBuild = invariant.Enabled

// CheckInvariants deep-validates the preprocessed data structures this
// engine trusts blindly: the hierarchy's CSR shapes and arc partition,
// the level-descending relabeling, and the CH search heap index. It
// only validates under -tags phastdebug (see CheckedBuild); a release
// build returns nil immediately.
func (e *Engine) CheckInvariants() error {
	if err := invariant.Hierarchy(e.h); err != nil {
		return err
	}
	if e.topo != nil {
		// Customizable hierarchies additionally satisfy the
		// triangle-relaxation fixed point over their own weights.
		if err := invariant.CustomizedMetric(e.h); err != nil {
			return err
		}
	}
	return e.core.CheckInvariants()
}

// Tree computes all shortest-path distances from source with the
// sequential PHAST sweep. Read results with Dist or Distances.
func (e *Engine) Tree(source int32) { e.core.Tree(source) }

// TreeParallel is Tree with the parallel sweep of Section V: the same
// kernel as Tree, run chunk by chunk by the persistent
// dependency-bounded scheduler. It falls back to Tree's sequential
// sweep with one worker or a graph smaller than one chunk.
func (e *Engine) TreeParallel(source int32) { e.core.TreeParallel(source) }

// TreeWithParents is Tree plus parent pointers; enables PathTo.
func (e *Engine) TreeWithParents(source int32) { e.core.TreeWithParents(source) }

// TreeWithParentsParallel is TreeWithParents with the parallel sweep.
func (e *Engine) TreeWithParentsParallel(source int32) { e.core.TreeWithParentsParallel(source) }

// MultiTreeParallel is MultiTree with the parallel sweep; each chunk of
// the sweep relaxes all k trees before moving on.
func (e *Engine) MultiTreeParallel(sources []int32) {
	e.core.MultiTreeParallel(sources, false)
}

// SetWorkers adjusts the parallel-sweep worker budget at runtime
// (0 = GOMAXPROCS), resizing the shared persistent pool. It returns an
// error if a parallel sweep is in flight on any engine sharing this
// preprocessed data; no sweep state is disturbed in that case.
func (e *Engine) SetWorkers(workers int) error { return e.core.SetWorkers(workers) }

// Workers returns the current parallel-sweep worker budget.
func (e *Engine) Workers() int { return e.core.Workers() }

// SchedStats is the persistent scheduler's counter snapshot (see
// core.SchedStats): sweeps executed, chunks claimed, dependency stalls,
// and idle wakeups.
type SchedStats = core.SchedStats

// SchedStats returns cumulative persistent-scheduler counters for all
// engines sharing this preprocessed data.
func (e *Engine) SchedStats() SchedStats { return e.core.SchedStats() }

// StreamBytes returns the bytes of the packed sweep stream one tree
// scans (its words × 4): the graph term of the bandwidth model.
func (e *Engine) StreamBytes() int64 { return e.core.StreamBytes() }

// Dist returns the distance of v from the last tree's source, or Inf.
func (e *Engine) Dist(v int32) uint32 { return e.core.Dist(v) }

// Distances copies all n labels of the last tree into buf (indexed by
// vertex ID; Inf marks unreached vertices).
func (e *Engine) Distances(buf []uint32) { e.core.CopyDistances(buf) }

// PathTo expands the path from the last TreeWithParents source to v into
// original-graph vertices, or nil if unreached.
func (e *Engine) PathTo(v int32) []int32 { return e.core.PathTo(v) }

// TreeParents derives the shortest-path tree of the original graph from
// the last tree's labels (Section VII-A); buf[v] receives v's parent or
// -1. Requires strictly positive arc lengths.
func (e *Engine) TreeParents(buf []int32) { e.core.GTreeParents(buf) }

// MultiTree grows one tree per source in a single sweep (Section IV-B),
// relaxing the k labels of a vertex in register-resident 4-wide lane
// groups at any k = len(sources). Read results with MultiDist.
func (e *Engine) MultiTree(sources []int32) {
	e.core.MultiTree(sources, false)
}

// MultiDist returns the label of v in tree i of the last MultiTree.
func (e *Engine) MultiDist(i int, v int32) uint32 { return e.core.MultiDist(i, v) }

// Query returns the s→t distance with a bidirectional CH search — the
// point-to-point algorithm PHAST builds on (Section II-B).
func (e *Engine) Query(s, t int32) uint32 {
	if e.permutedQuery {
		s, t = e.core.EngineID(s), e.core.EngineID(t)
	}
	return e.query.Distance(s, t)
}

// EnableQueryStalling turns on stall-on-demand for Query/QueryPath
// (Geisberger et al.'s standard CH query optimization): vertices whose
// labels are provably suboptimal are settled without scanning, shrinking
// search spaces while keeping distances exact.
func (e *Engine) EnableQueryStalling() { e.query.EnableStalling() }

// QueryPath returns the s→t shortest path as original-graph vertices
// (shortcuts unpacked), or nil if unreachable.
func (e *Engine) QueryPath(s, t int32) []int32 {
	if !e.permutedQuery {
		return e.query.Path(s, t)
	}
	p := e.query.Path(e.core.EngineID(s), e.core.EngineID(t))
	for i, v := range p {
		p[i] = e.core.OrigID(v)
	}
	return p
}

// CopyDistances writes the labels of the last tree into buf indexed by
// vertex ID. The copy stays valid across later sweeps on this engine —
// the read-back form to use for results that cross goroutines.
func (e *Engine) CopyDistances(buf []uint32) { e.core.CopyDistances(buf) }

// TreeServer is the goroutine-safe serving layer: it batches concurrent
// tree requests into multi-source sweeps (Section IV-B batching), each
// swept sequentially by one of several executors that own an engine
// clone apiece — the per-source parallelism of Section V, one core per
// batch. See Engine.Serve.
type TreeServer = server.TreeServer

// TreeResult is one tree computed by a TreeServer; its distance buffer
// is a private pooled copy (call Release when done).
type TreeResult = server.TreeResult

// ServeOptions configures Engine.Serve; the zero value selects the
// defaults documented on server.Options (MaxBatch 16, GOMAXPROCS
// engines, blocking backpressure). Dispatch is work-conserving: a batch
// waits for more requests only while every engine is busy.
type ServeOptions = server.Options

// ServerStats is the atomic counter snapshot returned by
// TreeServer.Stats.
type ServerStats = server.Stats

// Overload policies for ServeOptions.Overload.
const (
	BlockOnFull  = server.BlockOnFull
	RejectOnFull = server.RejectOnFull
)

// Serving-layer sentinel errors.
var (
	// ErrServerOverloaded is returned by TreeServer.Query under the
	// RejectOnFull policy when the request queue is full.
	ErrServerOverloaded = server.ErrOverloaded
	// ErrServerClosed is returned by TreeServer.Query after Close.
	ErrServerClosed = server.ErrClosed
	// ErrUnknownMetric is returned by TreeServer.QueryMetric for a name
	// that was never installed.
	ErrUnknownMetric = server.ErrUnknownMetric
)

// DefaultMetric is the server-side name of the metric Serve starts
// with (the engine's own weights).
const DefaultMetric = server.DefaultMetric

// InstallMetric publishes this engine as the live epoch of the named
// metric on srv — typically an engine returned by Customize, so a
// freshly customized weight vector goes live mid-traffic without
// draining. It returns the server-side epoch; every TreeResult swept
// under it reports that epoch via Epoch().
func (e *Engine) InstallMetric(srv *TreeServer, name string) (uint64, error) {
	return srv.InstallMetric(name, e.core)
}

// Serve starts a concurrent tree server over this engine's preprocessed
// data. The server owns its own pool of engine clones, so e remains
// usable from its own goroutine. opt may be nil. Close the server to
// release its goroutines.
func (e *Engine) Serve(opt *ServeOptions) (*TreeServer, error) {
	if opt == nil {
		opt = &ServeOptions{}
	}
	return server.New(e.core, *opt)
}

// ShardedServer is the partitioned serving layer: the graph is cut into
// K cells, each served by an RPHAST restriction of the shared engine.
// Single-target queries route to the target's cell (~n/K sweep work);
// full trees scatter-gather all K cells and are byte-identical to a
// monolithic sweep. Built for fleets of processes mapping one engine
// snapshot (see LoadSnapshot), where each process owns a few cells.
type ShardedServer = server.Sharded

// ShardedResult is one full tree gathered by a ShardedServer.
type ShardedResult = server.ShardedResult

// ShardedServeOptions configures Engine.ServeSharded (shard count K,
// partition seed, per-shard queue bound).
type ShardedServeOptions = server.ShardedOptions

// ServeSharded partitions the graph and starts one executor per cell
// over RPHAST restrictions of this engine. The engine must use the
// reordered sweep mode (the default, and what snapshots of default
// engines restore). opt may be nil. Close the server to release its
// goroutines.
func (e *Engine) ServeSharded(opt *ShardedServeOptions) (*ShardedServer, error) {
	if opt == nil {
		opt = &ShardedServeOptions{}
	}
	return server.NewSharded(e.g, e.core, *opt)
}

// InstallShardedMetric publishes this engine as the live epoch of srv —
// the sharded counterpart of InstallMetric: per-cell selections are
// rebuilt over this engine off to the side and swapped in atomically,
// so a new metric goes live mid-traffic without draining.
func (e *Engine) InstallShardedMetric(srv *ShardedServer, name string) (uint64, error) {
	return srv.InstallMetric(name, e.core)
}
