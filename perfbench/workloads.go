package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phast"
	"phast/internal/core"
	"phast/internal/server"
	"phast/internal/snapshot"
)

// workload is one traffic mix. Every workload is a closed loop: users
// callers each send a request, wait for its answer, pause for a seeded
// think time and send the next, so a slower host lowers the offered
// load instead of queueing an open loop's arrivals behind its stalls.
type workload struct {
	name   string
	users  int
	think  time.Duration // mean exponential pause before each request; 0 sends back to back
	batch  bool          // QueryMany of batchSources trees instead of one Query
	swap   bool          // a writer re-installs the metric every swapEvery
	routed bool          // ShardedServer.Distance instead of TreeServer
}

var workloads = []workload{
	{name: "batch-trees", users: 1, batch: true},
	{name: "serve-swap", users: 12, think: 40 * time.Millisecond, swap: true},
	{name: "route-distance", users: 4, routed: true},
}

// keepProb is the share of answers kept for verification against
// Dijkstra: about twenty to forty trees in a 30-second run. Routed
// distances are all checked, against the cheaper CH query.
func (wl workload) keepProb() float64 {
	switch {
	case wl.routed:
		return 0
	case wl.batch:
		return 1.0 / 32
	default:
		return 1.0 / 256
	}
}

const (
	batchSources = 64 // sources per QueryMany call in batch-trees
	swapEvery    = 250 * time.Millisecond
	shards       = 4
	// partitionSeed is fixed so every run routes over the same cut.
	partitionSeed = 7
)

func shardedOptions() *phast.ShardedServeOptions {
	return &phast.ShardedServeOptions{Shards: shards, Seed: partitionSeed}
}

// stack is the restored engine and the serving front a run drives.
type stack struct {
	eng *phast.Engine
	srv *phast.TreeServer
	sh  *phast.ShardedServer
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.sh != nil {
		s.sh.Close()
	}
}

// run holds what one invocation measures and checks.
type run struct {
	cfg  config
	man  *manifest
	tr   *tracer
	ctx  context.Context
	ref  *reference
	st   *stack
	fail atomic.Int64 // failed operations: errors and wrong outputs
	att  atomic.Int64 // attempted operations
}

// setupOnce restores the snapshot, starts the workload's front and
// waits for the first answer, which it checks against the reference.
// Untraced, it goes through the public API; traced, it makes the same
// calls into snapshot, core and server one by one so each gets a span.
func (r *run) setupOnce(parent openSpan) (*stack, error) {
	if r.tr == nil {
		eng, err := phast.LoadSnapshot(r.man.Snapshot, nil)
		if err != nil {
			return nil, err
		}
		st := &stack{eng: eng}
		if r.cfg.wl.routed {
			st.sh, err = eng.ServeSharded(shardedOptions())
		} else {
			st.srv, err = eng.Serve(nil)
		}
		if err != nil {
			return nil, err
		}
		return st, r.firstAnswer(st.srv, st.sh)
	}
	sp := r.tr.begin("snapshot.Load", parent)
	snap, err := snapshot.Load(r.man.Snapshot)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("core.NewEngineFromParts", parent)
	c, err := core.NewEngineFromParts(snap.Parts, 0, core.SnapshotInfo{Bytes: snap.Size, Hold: snap.Hold})
	sp.end()
	if err != nil {
		return nil, err
	}
	st := &stack{}
	if r.cfg.wl.routed {
		sp = r.tr.begin("server.NewSharded", parent)
		st.sh, err = server.NewSharded(snap.Orig, c, *shardedOptions())
	} else {
		sp = r.tr.begin("server.New", parent)
		st.srv, err = server.New(c, server.Options{})
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("first_answer", parent)
	err = r.firstAnswer(st.srv, st.sh)
	sp.end()
	return st, err
}

func (r *run) firstAnswer(srv *phast.TreeServer, sh *phast.ShardedServer) error {
	r.att.Add(1)
	if sh != nil {
		d, err := sh.Distance(r.ctx, r.ref.source, r.ref.target)
		if err != nil {
			r.fail.Add(1)
			return err
		}
		if want := r.ref.tree[r.ref.target]; d != want {
			r.fail.Add(1)
			logf("verify: first distance %d->%d is %d, Dijkstra %d", r.ref.source, r.ref.target, d, want)
		}
		return nil
	}
	res, err := srv.Query(r.ctx, r.ref.source)
	if err != nil {
		r.fail.Add(1)
		return err
	}
	if v := firstMismatch(res.Distances(), r.ref.tree); v >= 0 {
		r.fail.Add(1)
		logf("verify: first tree from %d differs from Dijkstra at vertex %d", r.ref.source, v)
	}
	res.Release()
	return nil
}

// setupReps is how many restores set-up time is the median of: one
// restore swings by ±15% on a shared host, the median of 15 by a few
// percent. The sharded front partitions the graph and builds K
// selections per restore, so fewer of its slower restores suffice.
func setupReps(routed bool) int {
	if routed {
		return 9
	}
	return 15
}

// measureSetup returns the median set-up time in seconds.
func (r *run) measureSetup() (float64, error) {
	reps := setupReps(r.cfg.wl.routed)
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		root := r.tr.begin("setup", openSpan{})
		start := time.Now()
		st, err := r.setupOnce(root)
		d := time.Since(start)
		root.end()
		if st != nil {
			st.close()
		}
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		xs = append(xs, d.Seconds())
		releaseDropped()
	}
	return median(xs), nil
}

// releaseDropped lets the finalizers of a dropped restore run before
// the next one, so peak RSS holds one snapshot mapping, not one per
// restore. They run in a chain over successive collections: the
// engine's finalizer releases its worker pool, and only then can the
// mapping become unreachable and be unmapped by its own.
func releaseDropped() {
	for i := 0; i < 4; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// phaseResult is what a timed phase leaves for metrics and traces.
type phaseResult struct {
	lat      []float64 // ms, measured window only
	at       []float64 // seconds into the measured window each op was sent
	late     []float64 // think-time oversleep, ms, measured window only
	steal    []float64 // host steal in each slice of the window, ms
	ops      int       // operations in the measured window
	before   server.Stats
	after    server.Stats
	memStart runtime.MemStats
	memEnd   runtime.MemStats
	// sweepsPerOp and treesPerOp are the sweeps and copied-out trees
	// one operation waits for on its critical path (server.wait_ms).
	sweepsPerOp, treesPerOp float64
}

// warmup is the discarded lead-in of every phase: long enough for
// pools and caches to fill, short next to the measured window.
func (r *run) warmup() time.Duration {
	return min(time.Second, time.Duration(r.cfg.seconds*float64(time.Second))/4)
}

func (r *run) snapshotStats(p *phaseResult, end bool) {
	var st server.Stats
	if r.st.srv != nil {
		st = r.st.srv.Stats()
	}
	if end {
		runtime.ReadMemStats(&p.memEnd)
		p.after = st
	} else {
		p.before = st
		runtime.ReadMemStats(&p.memStart)
	}
}

// opRecord is one answered request of a phase, kept until the phase
// ends so that outputs are checked outside the timed window. It is kept
// small: route-distance answers about 85,000 requests a run, and
// bookkeeping that grew with throughput would show up in peak RSS.
type opRecord struct {
	at             float32 // seconds into the measured window; < 0 in warm-up
	lat, late      float32 // ms
	source, target int32
	dist           uint32 // routed distance
	epoch          uint64 // epoch the tree reports
	minEpoch       uint64 // latest epoch published before the request was sent
}

// runPhase drives the workload's callers for warm-up plus the measured
// window, then verifies what they kept.
func (r *run) runPhase() (*phaseResult, error) {
	wl := r.cfg.wl
	p := &phaseResult{sweepsPerOp: 1, treesPerOp: 1}
	phase := r.tr.begin("phase", openSpan{})
	from := time.Now().Add(r.warmup())
	end := from.Add(time.Duration(r.cfg.seconds * float64(time.Second)))

	// published holds every epoch a tree may legally report: the one
	// live at the start and each one the writer installed.
	var published []uint64
	var lastPublished atomic.Uint64
	if r.st.srv != nil {
		e, _ := r.st.srv.ActiveEpoch(phast.DefaultMetric)
		published = append(published, e)
		lastPublished.Store(e)
	}
	stopWriter := make(chan struct{})
	var writer sync.WaitGroup
	if wl.swap {
		writer.Add(1)
		go func() {
			defer writer.Done()
			tick := time.NewTicker(swapEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopWriter:
					return
				case <-tick.C:
				}
				sp := r.tr.begin("server.InstallMetric", phase)
				e, err := r.st.eng.InstallMetric(r.st.srv, phast.DefaultMetric)
				sp.end()
				if err != nil {
					r.fail.Add(1)
					logf("install metric: %v", err)
					continue
				}
				published = append(published, e)
				lastPublished.Store(e)
			}
		}()
	}

	recs := make([][]opRecord, wl.users)
	kept := make([][]keptTree, wl.users)
	var users sync.WaitGroup
	for u := range recs {
		users.Add(1)
		go func(u int) {
			defer users.Done()
			in := newUserStream(r.cfg.seed, u, r.man.Vertices, wl)
			sources := make([]int32, batchSources)
			measuring := false
			for i := 0; ; i++ {
				due := time.Now().Add(in.pause())
				time.Sleep(time.Until(due))
				start := time.Now()
				if !start.Before(end) {
					return
				}
				rec := opRecord{at: float32(start.Sub(from).Seconds()), late: float32(ms(start.Sub(due)))}
				// The first measured answer of caller 0 is always kept,
				// so even the shortest run verifies one.
				keep := in.keep() || (u == 0 && rec.at >= 0 && !measuring)
				measuring = rec.at >= 0
				r.att.Add(1)
				var err error
				rq := r.tr.request("request", phase)
				switch {
				case wl.routed:
					rec.source, rec.target = in.next(), in.next()
					sp := r.tr.begin("server.Sharded.Distance", rq)
					rec.dist, err = r.st.sh.Distance(r.ctx, rec.source, rec.target)
					sp.end()
					rec.lat = float32(ms(time.Since(start)))
				case wl.batch:
					in.fill(sources)
					sp := r.tr.begin("server.QueryMany", rq)
					var res []*phast.TreeResult
					res, err = r.st.srv.QueryMany(r.ctx, sources)
					sp.end()
					rec.lat = float32(ms(time.Since(start)))
					if err == nil && len(res) != len(sources) {
						err = fmt.Errorf("QueryMany returned %d trees for %d sources", len(res), len(sources))
					}
					for j, t := range res {
						if t.Source() != sources[j] {
							r.fail.Add(1)
							logf("verify: QueryMany result %d is from %d, asked %d", j, t.Source(), sources[j])
						}
					}
					if keep && err == nil {
						lane := i % batchSources
						kept[u] = append(kept[u], keptTree{sources[lane], append([]uint32(nil), res[lane].Distances()...)})
					}
					for _, t := range res {
						t.Release()
					}
				default:
					rec.source = in.next()
					rec.minEpoch = lastPublished.Load()
					sp := r.tr.begin("server.Query", rq)
					var res *phast.TreeResult
					res, err = r.st.srv.Query(r.ctx, rec.source)
					sp.end()
					rec.lat = float32(ms(time.Since(start)))
					if err == nil {
						rec.epoch = res.Epoch()
						if keep {
							kept[u] = append(kept[u], keptTree{rec.source, append([]uint32(nil), res.Distances()...)})
						}
						res.Release()
					}
				}
				rq.end()
				if err != nil {
					r.fail.Add(1)
					logf("request: %v", err)
					continue
				}
				recs[u] = append(recs[u], rec)
			}
		}(u)
	}
	time.Sleep(time.Until(from))
	r.snapshotStats(p, false)
	// Host steal is read at every slice boundary: the gated latencies
	// are taken over the calm slices.
	n := slicesIn(r.cfg.seconds)
	last := hostStealMs()
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(from.Add(end.Sub(from) * time.Duration(i) / time.Duration(n))))
		now := hostStealMs()
		p.steal = append(p.steal, now-last)
		last = now
	}
	users.Wait()
	r.snapshotStats(p, true)
	close(stopWriter)
	writer.Wait()
	phase.end()

	isPublished := make(map[uint64]bool, len(published))
	for _, e := range published {
		isPublished[e] = true
	}
	measured := 0
	for _, rs := range recs {
		for _, q := range rs {
			if q.at >= 0 {
				measured++
			}
		}
	}
	p.lat, p.at = make([]float64, 0, measured), make([]float64, 0, measured)
	for _, rs := range recs {
		for _, q := range rs {
			if q.at >= 0 {
				p.lat = append(p.lat, float64(q.lat))
				p.at = append(p.at, float64(q.at))
				if wl.think > 0 {
					p.late = append(p.late, float64(q.late))
				}
			}
			if !wl.routed && !wl.batch && (!isPublished[q.epoch] || q.epoch < q.minEpoch) {
				r.fail.Add(1)
				logf("verify: tree of epoch %d, published %v, at least %d expected", q.epoch, published, q.minEpoch)
			}
		}
		if wl.routed {
			r.verifyRouted(rs)
		}
	}
	p.ops = len(p.lat)
	if wl.batch && p.ops > 0 {
		engines := float64(runtime.GOMAXPROCS(0))
		p.sweepsPerOp = float64(p.after.Batches-p.before.Batches) / float64(p.ops) / engines
		p.treesPerOp = batchSources / engines
	}
	for _, k := range kept {
		r.verifyTrees(k)
	}
	return p, nil
}

// keptTree is a sampled tree kept for verification after the phase.
type keptTree struct {
	source int32
	dist   []uint32
}
