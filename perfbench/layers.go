package main

import (
	"fmt"

	"phast/internal/core"
	"phast/internal/rphast"
	"phast/internal/server"
	"phast/internal/snapshot"
)

// perLayerDefs are the per-layer metrics of a traced run. A metric of a
// layer the workload does not pass through reads 0: server.* and
// sched.* on route-distance, sharded.wait_ms off it, and gen.late_ms
// where callers send without think time.
var perLayerDefs = []metricDef{
	{"snapshot.load_ms", "ms"},
	{"snapshot.assemble_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"server.start_ms", "ms"},
	{"server.batches", "count"},
	{"server.occupancy", "trees"},
	{"server.queue_high_water", "count"},
	{"server.sweep_busy_s", "s"},
	{"server.wait_ms", "ms"},
	{"server.install_ms", "ms"},
	{"core.upward_us", "us"},
	{"core.tree_ms", "ms"},
	{"core.sweep_k1_ms", "ms"},
	{"core.sweep_k2_ms", "ms"},
	{"core.sweep_k16_ms", "ms"},
	{"core.copyout_us", "us"},
	{"core.sweep_bytes_k16", "B"},
	{"core.sweep_gbps_k16", "GB/s"},
	{"sched.chunks_per_sweep", "count"},
	{"sched.stalls_per_sweep", "count"},
	{"sched.idle_per_sweep", "count"},
	{"sharded.start_ms", "ms"},
	{"rphast.selection_vertices", "count"},
	{"rphast.query_us", "us"},
	{"sharded.wait_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.late_ms", "ms"},
}

const (
	probeReps = 15 // timed calls per isolated probe; the median is kept
	probeK    = 16 // the server's full batch
)

// Span names of the isolated probes.
const (
	spanUpward  = "core.UpwardSearchSpace"
	spanTree    = "core.Tree"
	spanCopyout = "core.CopyLaneDistances"
	spanRPHAST  = "rphast.Query.Run"
)

func spanSweep(k int) string { return fmt.Sprintf("core.MultiTreeParallel.k%d", k) }

// probe times single calls into core, rphast and the two server fronts
// on a freshly restored clone, after the timed phase, so no probe call
// competes with served traffic. It returns the per-cell RPHAST
// selection size and the modeled bytes of one k=16 sweep.
func (r *run) probe() (selection float64, sweepBytes int64, err error) {
	tr := r.tr
	root := tr.begin("probe", openSpan{})
	defer root.end()
	sp := tr.begin("snapshot.Load", root)
	snap, err := snapshot.Load(r.man.Snapshot)
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("core.NewEngineFromParts", root)
	c, err := core.NewEngineFromParts(snap.Parts, 0, core.SnapshotInfo{Bytes: snap.Size, Hold: snap.Hold})
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	sources := newVertexStream(r.cfg.seed, streamProbe, r.man.Vertices).fill(make([]int32, probeK))

	var verts []int32
	var dists []uint32
	for i := 0; i < probeReps; i++ {
		sp := tr.begin(spanUpward, root)
		verts, dists = c.UpwardSearchSpace(sources[i%probeK], verts[:0], dists[:0])
		sp.end()
	}
	for i := 0; i < probeReps; i++ {
		sp := tr.begin(spanTree, root)
		c.Tree(sources[i%probeK])
		sp.end()
	}
	for _, k := range []int{1, 2, probeK} {
		for i := 0; i < probeReps; i++ {
			sp := tr.begin(spanSweep(k), root)
			c.MultiTreeParallel(sources[:k], false)
			sp.end()
		}
	}
	buf := make([]uint32, c.NumVertices())
	for i := 0; i < probeK; i++ {
		sp := tr.begin(spanCopyout, root)
		c.CopyLaneDistances(i, buf)
		sp.end()
	}
	if err := r.ref.checkTree(sources[probeK-1], buf); err != nil {
		r.fail.Add(1)
		logf("verify: probe: %v", err)
	}
	r.att.Add(1)

	for i := 0; i < 3; i++ {
		sp := tr.begin("server.New", root)
		srv, err := server.New(c, server.Options{})
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		sp = tr.begin("server.InstallMetric", root)
		_, err = srv.InstallMetric(server.DefaultMetric, c)
		sp.end()
		srv.Close()
		if err != nil {
			return 0, 0, err
		}
	}

	sp = tr.begin("server.NewSharded", root)
	sh, err := server.NewSharded(snap.Orig, c, *shardedOptions())
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	defer sh.Close()
	for _, sz := range sh.SelectionSizes() {
		selection += float64(sz) / shards
	}
	cell := sh.Partition().Cell[r.ref.target]
	sel, err := rphast.NewSelection(c, sh.Partition().Members[cell])
	if err != nil {
		return 0, 0, err
	}
	q := rphast.NewQuery(sel)
	for i := 0; i < probeReps; i++ {
		sp := tr.begin(spanRPHAST, root)
		q.Run(sources[i%probeK])
		sp.end()
	}
	return selection, c.SweepBytes(probeK), nil
}

// perLayer assembles the per-layer metrics of a traced pass from its
// spans, the server and runtime counter deltas of the phase, and the
// isolated probes; p50 is the pass's gated p50_ms.
func (r *run) perLayer(p *phaseResult, p50 float64, late latencySummary) (map[string]metricValue, error) {
	selection, sweepBytes, err := r.probe()
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	tr := r.tr
	med := func(name string) float64 {
		xs := tr.durations(name)
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	v := map[string]float64{
		"snapshot.load_ms":          med("snapshot.Load"),
		"snapshot.assemble_ms":      med("core.NewEngineFromParts"),
		"snapshot.bytes":            float64(r.man.Bytes),
		"server.start_ms":           med("server.New"),
		"server.install_ms":         med("server.InstallMetric"),
		"core.upward_us":            med(spanUpward) * 1000,
		"core.tree_ms":              med(spanTree),
		"core.sweep_k1_ms":          med(spanSweep(1)),
		"core.sweep_k2_ms":          med(spanSweep(2)),
		"core.sweep_k16_ms":         med(spanSweep(probeK)),
		"core.copyout_us":           med(spanCopyout) * 1000,
		"core.sweep_bytes_k16":      float64(sweepBytes),
		"sharded.start_ms":          med("server.NewSharded"),
		"rphast.selection_vertices": selection,
		"rphast.query_us":           med(spanRPHAST) * 1000,
		"gen.late_ms":               late.P90,
	}
	if k16 := v["core.sweep_k16_ms"]; k16 > 0 {
		v["core.sweep_gbps_k16"] = float64(sweepBytes) / (k16 / 1000) / 1e9
	}

	for name, x := range phaseCounters(p, r.cfg.wl.routed) {
		v[name] = x
	}
	if r.cfg.wl.routed {
		v["sharded.wait_ms"] = p50 - v["rphast.query_us"]/1000
	} else if occ := v["server.occupancy"]; occ > 0 {
		sweep := sweepAt(occ, v["core.sweep_k1_ms"], v["core.sweep_k2_ms"], v["core.sweep_k16_ms"])
		v["server.wait_ms"] = p50 - (p.sweepsPerOp*sweep + p.treesPerOp*v["core.copyout_us"]/1000)
	}

	out := make(map[string]metricValue, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.name] = metricValue{v[d.name], d.unit}
	}
	return out, nil
}

// phaseCounters are the per-layer metrics taken from the server's and
// the runtime's counters over the measured window. Untraced runs print
// them among the diagnostics too.
func phaseCounters(p *phaseResult, routed bool) map[string]float64 {
	v := map[string]float64{}
	if !routed {
		b, a := p.before, p.after
		batches := float64(a.Batches - b.Batches)
		v["server.batches"] = batches
		v["server.queue_high_water"] = float64(a.QueueHighWater)
		v["server.sweep_busy_s"] = a.SweepSeconds - b.SweepSeconds
		if batches > 0 {
			v["server.occupancy"] = (a.MeanBatchOccupancy*float64(a.Batches) - b.MeanBatchOccupancy*float64(b.Batches)) / batches
		}
		if sweeps := float64(a.SchedSweeps - b.SchedSweeps); sweeps > 0 {
			v["sched.chunks_per_sweep"] = float64(a.SchedChunks-b.SchedChunks) / sweeps
			v["sched.stalls_per_sweep"] = float64(a.SchedStalls-b.SchedStalls) / sweeps
			v["sched.idle_per_sweep"] = float64(a.SchedIdle-b.SchedIdle) / sweeps
		}
	}
	if p.ops > 0 {
		v["runtime.alloc_bytes_per_op"] = float64(p.memEnd.TotalAlloc-p.memStart.TotalAlloc) / float64(p.ops)
	}
	v["runtime.gc_cycles"] = float64(p.memEnd.NumGC - p.memStart.NumGC)
	v["runtime.gc_pause_ms"] = float64(p.memEnd.PauseTotalNs-p.memStart.PauseTotalNs) / 1e6
	return v
}

// sweepAt interpolates the isolated sweep time at a mean batch
// occupancy between the probed k=1, k=2 and k=16 sweeps.
func sweepAt(occ, k1, k2, k16 float64) float64 {
	switch {
	case occ <= 1:
		return k1
	case occ <= 2:
		return k1 + (k2-k1)*(occ-1)
	case occ >= probeK:
		return k16
	default:
		return k2 + (k16-k2)*(occ-2)/(probeK-2)
	}
}
