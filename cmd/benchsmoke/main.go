// Command benchsmoke is the CI benchmark smoke check, one gate per
// mode:
//
//   - sweep: times the packed single-tree and k=16 sweeps, sequential
//     and on the persistent dependency-bounded scheduler (max(2, NumCPU)
//     workers), against a sequential stream over the same downward
//     graph (the Section VIII-B lower bound) on the europe-m fixture
//     (same DFS layout and source stream as the root bench_test.go), in
//     interleaved rounds. It exits non-zero if a median ns per tree ÷
//     stream time exceeds its tolerance (-tolerance for the sequential
//     sweeps, -sched-tolerance for the pooled ones) × the baseline
//     recorded in the report at -out, and writes the report there with
//     that baseline carried forward.
//   - chbuild: times batch-parallel CH preprocessing at Workers 1 and
//     NumCPU on the same fixture graph, writes BENCH_4.json, and exits
//     non-zero if the parallel build is slower than the sequential one
//     (on a multi-core host) or the shortcut count drifts more than 5%.
//   - customize: times metric customization (triangle relaxation plus
//     mounting the customized hierarchy as a pool-sharing engine)
//     against a full from-scratch customizable build plus engine, on
//     the europe-xs fixture, writes BENCH_6.json, and exits non-zero
//     if customization costs more than the customize tolerance (20%)
//     of the rebuild it replaces — the whole point of the topology/
//     metric split. On a multi-core host it also records the parallel
//     (pooled) customization's speedup over the sequential pass; that
//     half auto-skips on single-CPU hosts. The fixture is europe-xs
//     rather than europe-m because the baseline side — an all-pairs
//     (witness-free) contraction — is minutes-long at 66k vertices,
//     which is exactly the cost customization exists to avoid; the
//     measured ratio is scale-robust in customization's favor (both
//     sides grow with the same triangle count).
//   - snapshot: preprocesses the europe-m fixture once, saves the
//     engine snapshot, and times the mmap and heap restores against
//     the rebuild, writing BENCH_8.json; exits non-zero if the mmap
//     cold start is not at least the snapshot speedup floor (default
//     50x) faster than the rebuild, or a sharded routed distance costs
//     more than the shard tolerance (default 1.10x) of one monolithic
//     tree sweep.
//
// Usage:
//
//	benchsmoke                       run all gates, write BENCH_3, 4, 6 and 8.json
//	benchsmoke -mode sweep -out report.json -tolerance 1.15 -sched-tolerance 1.10
//	benchsmoke -mode chbuild -chbuild-out BENCH_4.json
//	benchsmoke -mode customize -customize-out BENCH_6.json
//	benchsmoke -mode snapshot -snapshot-out BENCH_8.json -snapshot-speedup 50
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"phast"
	"phast/internal/bandwidth"
	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/layout"
	"phast/internal/roadnet"
)

// SweepRound is one round of the sweep gate: the fastest burst of
// bandwidth.Sequential passes over the fixture's downward graph, and of
// the packed single-tree and k=16 sweeps, sequential and pooled, on the
// round's fresh engines.
type SweepRound struct {
	StreamNs             float64 `json:"stream_ns"`
	TreeNsPerTree        float64 `json:"tree_ns_per_tree"`
	MultiNsPerTree       float64 `json:"multi_k16_ns_per_tree"`
	TreePooledNsPerTree  float64 `json:"tree_pooled_ns_per_tree"`
	MultiPooledNsPerTree float64 `json:"multi_k16_pooled_ns_per_tree"`
	RatioTree            float64 `json:"ratio_tree"`
	RatioMulti           float64 `json:"ratio_multi_k16"`
	RatioTreePooled      float64 `json:"ratio_tree_pooled"`
	RatioMultiPooled     float64 `json:"ratio_multi_k16_pooled"`
}

// SweepBaseline is the recorded reference the sweep gate compares
// against: median ns per tree ÷ stream time, for one tree and per tree
// of a k=16 sweep, sequential and pooled, with the toolchain that
// recorded them.
type SweepBaseline struct {
	GoVersion        string  `json:"go_version"`
	RatioTree        float64 `json:"ratio_tree"`
	RatioMulti       float64 `json:"ratio_multi_k16"`
	RatioTreePooled  float64 `json:"ratio_tree_pooled"`
	RatioMultiPooled float64 `json:"ratio_multi_k16_pooled"`
}

// Report is the BENCH_3.json schema: the sweep gate. Dividing each
// sweep by the sequential stream over the same bytes (the Section
// VIII-B lower bound) makes the ratios comparable across runs on hosts
// of different speed, so they gate against a recorded baseline.
type Report struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	Instance  string `json:"instance"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	// PooledWorkers is the worker count of the pooled sweeps:
	// max(2, NumCPU), so the scheduler engages even on one CPU.
	PooledWorkers int `json:"pooled_workers"`
	// The ratios are the medians over rounds of ns per tree ÷ stream
	// time; Baseline is carried forward unchanged.
	RatioTree        float64       `json:"ratio_tree"`
	RatioMulti       float64       `json:"ratio_multi_k16"`
	RatioTreePooled  float64       `json:"ratio_tree_pooled"`
	RatioMultiPooled float64       `json:"ratio_multi_k16_pooled"`
	Baseline         SweepBaseline `json:"baseline"`
	Rounds           []SweepRound  `json:"rounds"`
}

func fixtureGraph(preset roadnet.Preset) (*graph.Graph, error) {
	net, err := roadnet.GeneratePreset(preset, roadnet.TravelTime)
	if err != nil {
		return nil, err
	}
	perm := layout.DFS(net.Graph, 0)
	return net.Graph.Permute(perm)
}

func buildFixture(preset roadnet.Preset) (*graph.Graph, *ch.Hierarchy, []int32, error) {
	g, err := fixtureGraph(preset)
	if err != nil {
		return nil, nil, nil, err
	}
	h := ch.Build(g, ch.Options{})
	rng := rand.New(rand.NewSource(7))
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32(rng.Intn(g.NumVertices()))
	}
	return g, h, sources, nil
}

func engine(h *ch.Hierarchy, workers int) (*core.Engine, error) {
	return core.NewEngine(h, core.Options{Mode: core.SweepReordered, Workers: workers})
}

// rounds is how many interleaved A/B measurements each cell gets; the
// per-cell minimum is reported. Each round constructs FRESH engines
// (alternating which variant allocates first) so allocation placement,
// CPU frequency ramp-up, and run order all vary across rounds instead
// of biasing every measurement the same way.
const rounds = 3

// sweepRounds is the sweep gate's round count: it gates on a median, so
// it takes an odd count large enough that one disturbed round cannot
// move the verdict.
const sweepRounds = 5

// sweepBursts is how many short interleaved bursts of each measurement
// one round of the sweep gate takes; a round keeps each measurement's
// fastest burst. On a shared host the stream and the sweeps slow down
// together when a neighbour takes memory bandwidth or CPU, so timing
// them in alternation over ~10 ms bursts lets that drift cancel in
// their ratio, and the fastest burst drops the interrupted ones.
const sweepBursts = 24

// burstNs runs fn ops times and returns the mean ns per op.
func burstNs(ops int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < ops; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// median returns the median of xs (the mean of the middle pair for an
// even count). xs is reordered.
func median(xs []float64) float64 {
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

// readSweepBaseline returns the baseline recorded in the report at
// path. ok is false when no report exists there yet; a report without
// a baseline is an error, so a gate cannot silently re-baseline itself.
func readSweepBaseline(path string) (base SweepBaseline, ok bool, err error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return base, false, nil
	}
	if err != nil {
		return base, false, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return base, false, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Baseline.RatioTree <= 0 || rep.Baseline.RatioMulti <= 0 {
		return base, false, fmt.Errorf("%s records no sweep baseline", path)
	}
	if rep.Baseline.RatioTreePooled <= 0 || rep.Baseline.RatioMultiPooled <= 0 {
		return base, false, fmt.Errorf("%s records no pooled sweep baseline", path)
	}
	return rep.Baseline, true, nil
}

// runSweep is the sweep gate. Each round builds fresh engines and
// times, in rotating order and in short interleaved bursts, a
// sequential stream over the fixture's downward graph
// (bandwidth.Sequential, the Section VIII-B lower bound) and the packed
// single-tree and k=16 sweeps, sequential and on the persistent
// scheduler. The gated quantities are the medians over rounds of ns per
// tree ÷ stream time; each must stay within its tolerance (tolerance
// for the sequential sweeps, pooledTolerance for the pooled ones) × the
// baseline recorded in the report at out. Without a report there, this
// run's medians become the baseline.
func runSweep(out, preset string, tolerance, pooledTolerance float64) error {
	base, haveBase, err := readSweepBaseline(out)
	if err != nil {
		return err
	}
	g, h, sources, err := buildFixture(roadnet.Preset(preset))
	if err != nil {
		return err
	}
	rep := Report{
		GoVersion:     runtime.Version(),
		GOARCH:        runtime.GOARCH,
		Instance:      preset + "/dfs",
		N:             g.NumVertices(),
		M:             g.NumArcs(),
		PooledWorkers: max(2, runtime.NumCPU()),
	}
	dist := make([]uint32, g.NumVertices())
	const k = 16
	batch := make([]int32, k)
	var ratioTree, ratioMulti, ratioTreePooled, ratioMultiPooled []float64
	for r := 0; r < sweepRounds; r++ {
		var engs [4]*core.Engine // tree, multi, tree pooled, multi pooled
		for i := range engs {
			workers := 1
			if i >= 2 {
				workers = rep.PooledWorkers
			}
			if engs[i], err = engine(h, workers); err != nil {
				return err
			}
		}
		tree, multi, treePooled, multiPooled := engs[0], engs[1], engs[2], engs[3]
		downIn := tree.Hierarchy().DownIn
		next := 0 // source cursor, shared so every burst sees new sources
		src := func() int32 { next++; return sources[next%len(sources)] }
		// Warm-up: first-touch faults and the k·n label allocation.
		tree.Tree(src())
		multi.MultiTree(sources[:k], false)
		treePooled.TreeParallel(src())
		multiPooled.MultiTreeParallel(sources[:k], false)
		inf := math.Inf(1)
		round := SweepRound{StreamNs: inf, TreeNsPerTree: inf, MultiNsPerTree: inf,
			TreePooledNsPerTree: inf, MultiPooledNsPerTree: inf}
		multiBurst := func(sweep func([]int32, bool)) float64 {
			return burstNs(2, func() {
				for j := range batch {
					batch[j] = src()
				}
				sweep(batch, false)
			}) / k
		}
		steps := []func(){
			func() {
				round.StreamNs = min(round.StreamNs, burstNs(32, func() { bandwidth.Sequential(downIn, dist, 1) }))
			},
			func() {
				round.TreeNsPerTree = min(round.TreeNsPerTree, burstNs(8, func() { tree.Tree(src()) }))
			},
			func() {
				round.MultiNsPerTree = min(round.MultiNsPerTree, multiBurst(multi.MultiTree))
			},
			func() {
				round.TreePooledNsPerTree = min(round.TreePooledNsPerTree, burstNs(8, func() { treePooled.TreeParallel(src()) }))
			},
			func() {
				round.MultiPooledNsPerTree = min(round.MultiPooledNsPerTree, multiBurst(multiPooled.MultiTreeParallel))
			},
		}
		for b := 0; b < sweepBursts; b++ {
			for i := range steps {
				steps[(i+r+b)%len(steps)]()
			}
		}
		round.RatioTree = round.TreeNsPerTree / round.StreamNs
		round.RatioMulti = round.MultiNsPerTree / round.StreamNs
		round.RatioTreePooled = round.TreePooledNsPerTree / round.StreamNs
		round.RatioMultiPooled = round.MultiPooledNsPerTree / round.StreamNs
		rep.Rounds = append(rep.Rounds, round)
		ratioTree = append(ratioTree, round.RatioTree)
		ratioMulti = append(ratioMulti, round.RatioMulti)
		ratioTreePooled = append(ratioTreePooled, round.RatioTreePooled)
		ratioMultiPooled = append(ratioMultiPooled, round.RatioMultiPooled)
	}
	rep.RatioTree = median(ratioTree)
	rep.RatioMulti = median(ratioMulti)
	rep.RatioTreePooled = median(ratioTreePooled)
	rep.RatioMultiPooled = median(ratioMultiPooled)
	if !haveBase {
		base = SweepBaseline{GoVersion: rep.GoVersion, RatioTree: rep.RatioTree, RatioMulti: rep.RatioMulti,
			RatioTreePooled: rep.RatioTreePooled, RatioMultiPooled: rep.RatioMultiPooled}
		fmt.Printf("sweep: no report at %s; recording this run as the baseline\n", out)
	}
	rep.Baseline = base

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	for i, r := range rep.Rounds {
		fmt.Printf("round %d: stream %9.0f ns, tree %9.0f ns (%.3fx), k=16 %9.0f ns/tree (%.3fx), pooled tree %9.0f ns (%.3fx), pooled k=16 %9.0f ns/tree (%.3fx)\n",
			i, r.StreamNs, r.TreeNsPerTree, r.RatioTree, r.MultiNsPerTree, r.RatioMulti,
			r.TreePooledNsPerTree, r.RatioTreePooled, r.MultiPooledNsPerTree, r.RatioMultiPooled)
	}
	fmt.Printf("sweep/stream median: %.3fx single-tree, %.3fx k=16 per tree (baseline %.3fx, %.3fx from %s; gate: ≤ %.2f × baseline)\n",
		rep.RatioTree, rep.RatioMulti, base.RatioTree, base.RatioMulti, base.GoVersion, tolerance)
	fmt.Printf("pooled sweep/stream median at %d workers: %.3fx single-tree, %.3fx k=16 per tree (baseline %.3fx, %.3fx; gate: ≤ %.2f × baseline)\n",
		rep.PooledWorkers, rep.RatioTreePooled, rep.RatioMultiPooled, base.RatioTreePooled, base.RatioMultiPooled, pooledTolerance)
	fmt.Printf("pooled single-tree speedup over sequential: %.3fx (not gated)\n", rep.RatioTree/rep.RatioTreePooled)

	gates := []struct {
		name           string
		got, base, tol float64
	}{
		{"single-tree sweep", rep.RatioTree, base.RatioTree, tolerance},
		{"k=16 sweep", rep.RatioMulti, base.RatioMulti, tolerance},
		{"pooled single-tree sweep", rep.RatioTreePooled, base.RatioTreePooled, pooledTolerance},
		{"pooled k=16 sweep", rep.RatioMultiPooled, base.RatioMultiPooled, pooledTolerance},
	}
	for _, gt := range gates {
		if gt.got > gt.base*gt.tol {
			return fmt.Errorf("%s is %.3fx the stream time per tree, baseline %.3fx (tolerance %.2f)", gt.name, gt.got, gt.base, gt.tol)
		}
	}
	return nil
}

// CHBuildResult is one measured preprocessing configuration.
type CHBuildResult struct {
	Workers         int     `json:"workers"`
	BuildMs         float64 `json:"build_ms"` // min over rounds
	Shortcuts       int     `json:"shortcuts"`
	Batches         int     `json:"batches"`
	AvgBatch        float64 `json:"avg_batch"`
	MaxBatch        int     `json:"max_batch"`
	WitnessSearches int64   `json:"witness_searches"`
}

// CHBuildReport is the BENCH_4.json schema: the chbuild scaling gate.
type CHBuildReport struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Instance  string `json:"instance"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	// SpeedupParallel is sequential build wall time divided by the
	// NumCPU-worker wall time (>1 means the parallel build wins; 1.0 by
	// construction on a single-core host).
	SpeedupParallel float64 `json:"speedup_parallel"`
	// ShortcutRatio is parallel shortcuts over sequential shortcuts. The
	// batch contractor is deterministic across worker counts, so any
	// value other than 1.0 is a regression; the gate allows 5%.
	ShortcutRatio float64         `json:"shortcut_ratio"`
	Results       []CHBuildResult `json:"results"`
}

// chbuildRounds is how many interleaved measurements each worker count
// gets (minimum wall time reported); preprocessing runs seconds per
// round, so two rounds balance jitter rejection against CI budget.
const chbuildRounds = 2

func runCHBuild(out, preset string, tolerance float64) error {
	g, err := fixtureGraph(roadnet.Preset(preset))
	if err != nil {
		return err
	}
	workerSets := []int{1, runtime.NumCPU()}
	if workerSets[1] == 1 {
		workerSets = workerSets[:1]
	}
	results := make([]CHBuildResult, len(workerSets))
	for i := range results {
		results[i] = CHBuildResult{Workers: workerSets[i], BuildMs: math.Inf(1)}
	}
	for r := 0; r < chbuildRounds; r++ {
		for j := range workerSets {
			// Alternate run order across rounds so frequency ramp-up and
			// allocator state do not bias one configuration.
			i := j
			if r%2 == 1 {
				i = len(workerSets) - 1 - j
			}
			var bs ch.BuildStats
			start := time.Now()
			h := ch.Build(g, ch.Options{Workers: results[i].Workers, Stats: &bs})
			ms := float64(time.Since(start).Microseconds()) / 1000
			if ms < results[i].BuildMs {
				results[i].BuildMs = ms
			}
			results[i].Shortcuts = h.NumShortcuts
			results[i].Batches = bs.Batches
			results[i].AvgBatch = bs.AvgBatch()
			results[i].MaxBatch = bs.MaxBatch
			results[i].WitnessSearches = bs.WitnessSearches
		}
	}
	rep := CHBuildReport{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Instance:  preset + "/dfs",
		N:         g.NumVertices(),
		M:         g.NumArcs(),
		Results:   results,
	}
	seq, par := results[0], results[len(results)-1]
	rep.SpeedupParallel = seq.BuildMs / par.BuildMs
	rep.ShortcutRatio = float64(par.Shortcuts) / float64(seq.Shortcuts)
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("chbuild workers=%-3d %10.0f ms %9d shortcuts %6d batches (avg %6.1f) %9d witness searches\n",
			r.Workers, r.BuildMs, r.Shortcuts, r.Batches, r.AvgBatch, r.WitnessSearches)
	}
	fmt.Printf("chbuild speedup: %.3fx at %d workers, shortcut ratio %.4f (gate: not slower than sequential ×%.2f, drift ≤ 5%%)\n",
		rep.SpeedupParallel, par.Workers, rep.ShortcutRatio, tolerance)

	if rep.ShortcutRatio > 1.05 || rep.ShortcutRatio < 0.95 {
		return fmt.Errorf("parallel build shortcut count drifted: ratio %.4f (gate 5%%)", rep.ShortcutRatio)
	}
	if len(workerSets) == 1 {
		fmt.Println("chbuild: single-CPU host, speedup gate skipped")
		return nil
	}
	if par.BuildMs > seq.BuildMs*tolerance {
		return fmt.Errorf("parallel build (%d workers) is %.3fx sequential time (tolerance %.2f)",
			par.Workers, par.BuildMs/seq.BuildMs, tolerance)
	}
	return nil
}

// CustomizeResult is one measured customization-path configuration.
type CustomizeResult struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"` // min over rounds
}

// CustomizeReport is the BENCH_6.json schema: the metric-customization
// gate.
type CustomizeReport struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Instance  string `json:"instance"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Shortcuts int    `json:"shortcuts"`
	Triangles int64  `json:"triangles"`
	// RatioCustomizeVsBuild is (Customize + pool-sharing engine mount)
	// time over (BuildCustomizable + engine) time; the gate fails above
	// the customize tolerance (default 0.20: rebinding a metric must
	// cost at most a fifth of the re-contraction it replaces).
	RatioCustomizeVsBuild float64 `json:"ratio_customize_vs_build"`
	// SpeedupParallel is sequential customization time over pooled
	// NumCPU-worker customization time; 0 when skipped on a single-CPU
	// host.
	SpeedupParallel float64           `json:"speedup_parallel"`
	Results         []CustomizeResult `json:"results"`
}

// customizeRounds is how many measurements the (cheap) customization
// side gets; the expensive build side reuses chbuildRounds.
const customizeRounds = 5

func runCustomize(out, preset string, maxRatio float64) error {
	g, err := fixtureGraph(roadnet.Preset(preset))
	if err != nil {
		return err
	}
	// Build side: full from-scratch customizable preprocessing plus a
	// fresh engine — what serving a new metric would cost without the
	// topology/metric split.
	buildMs := math.Inf(1)
	var topo *ch.Topology
	for r := 0; r < chbuildRounds; r++ {
		start := time.Now()
		tp, err := ch.BuildCustomizable(g, ch.Options{})
		if err != nil {
			return err
		}
		if _, err := core.NewEngine(tp.Hierarchy(), core.Options{Mode: core.SweepReordered, Workers: 1}); err != nil {
			return err
		}
		if ms := float64(time.Since(start).Microseconds()) / 1000; ms < buildMs {
			buildMs = ms
		}
		topo = tp
	}
	base, err := core.NewEngine(topo.Hierarchy(), core.Options{Mode: core.SweepReordered, Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}

	// Sanity: rebinding the reference metric must reproduce the
	// reference hierarchy's weights bit for bit.
	ref := make([]uint32, g.NumArcs())
	for i, a := range g.ArcList() {
		ref[i] = a.Weight
	}
	hRef, err := topo.Customize(ref, ch.CustomizeOptions{})
	if err != nil {
		return err
	}
	if !hRef.Up.Equal(topo.Hierarchy().Up) || !hRef.Down.Equal(topo.Hierarchy().Down) {
		return fmt.Errorf("customize: reference metric did not reproduce the reference hierarchy")
	}

	// Customize side: a perturbed metric (halved weights — any valid
	// vector, the pass is metric-oblivious) rebound and mounted as a
	// sibling engine sharing the sweep layout and worker pool.
	w := make([]uint32, len(ref))
	for i, x := range ref {
		w[i] = x / 2
	}
	custMs := math.Inf(1)
	for r := 0; r < customizeRounds; r++ {
		start := time.Now()
		h2, err := topo.Customize(w, ch.CustomizeOptions{Epoch: int64(r + 1)})
		if err != nil {
			return err
		}
		if _, err := core.NewEngineSharingPool(base, h2); err != nil {
			return err
		}
		if ms := float64(time.Since(start).Microseconds()) / 1000; ms < custMs {
			custMs = ms
		}
	}

	rep := CustomizeReport{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Instance:  preset + "/dfs",
		N:         g.NumVertices(),
		M:         g.NumArcs(),
		Shortcuts: topo.Hierarchy().NumShortcuts,
		Triangles: topo.NumTriangles(),
		Results: []CustomizeResult{
			{Name: "BuildCustomizable_plus_engine", Ms: buildMs},
			{Name: "Customize_plus_engine", Ms: custMs},
		},
	}
	rep.RatioCustomizeVsBuild = custMs / buildMs

	// Parallel half: the same customization on the persistent worker
	// pool. Meaningless when there is one CPU.
	if runtime.NumCPU() > 1 {
		parMs := math.Inf(1)
		for r := 0; r < customizeRounds; r++ {
			var st ch.CustomizeStats
			start := time.Now()
			if _, err := topo.Customize(w, ch.CustomizeOptions{Pool: base.SchedPool(), Stats: &st}); err != nil {
				return err
			}
			if ms := float64(time.Since(start).Microseconds()) / 1000; ms < parMs && st.Parallel {
				parMs = ms
			}
		}
		rep.Results = append(rep.Results, CustomizeResult{Name: "Customize_parallel", Ms: parMs})
		// Sequential customize alone (no engine mount) for a like-for-like
		// speedup denominator.
		seqMs := math.Inf(1)
		for r := 0; r < customizeRounds; r++ {
			start := time.Now()
			if _, err := topo.Customize(w, ch.CustomizeOptions{}); err != nil {
				return err
			}
			if ms := float64(time.Since(start).Microseconds()) / 1000; ms < seqMs {
				seqMs = ms
			}
		}
		rep.Results = append(rep.Results, CustomizeResult{Name: "Customize_sequential", Ms: seqMs})
		rep.SpeedupParallel = seqMs / parMs
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Printf("%-32s %12.2f ms\n", r.Name, r.Ms)
	}
	fmt.Printf("customize/build ratio: %.4f over %d shortcuts, %d triangles (gate: ≤ %.2f)\n",
		rep.RatioCustomizeVsBuild, rep.Shortcuts, rep.Triangles, maxRatio)
	if rep.SpeedupParallel > 0 {
		fmt.Printf("customize parallel speedup: %.3fx at %d workers\n", rep.SpeedupParallel, runtime.NumCPU())
	} else {
		fmt.Println("customize: single-CPU host, parallel speedup half skipped")
	}

	if rep.RatioCustomizeVsBuild > maxRatio {
		return fmt.Errorf("customization is %.3fx a full rebuild (tolerance %.2f)", rep.RatioCustomizeVsBuild, maxRatio)
	}
	return nil
}

// SnapshotReport is the BENCH_8.json schema: the zero-copy cold-start
// gate and the sharded-serving latency gate.
type SnapshotReport struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	Instance  string `json:"instance"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	// SnapshotBytes is the on-disk size of the saved engine.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// BuildMs is one fresh preprocess (CH contraction + engine) — the
	// cold start a process pays without a snapshot. SaveMs is the
	// one-time serialization cost. LoadMs is the mmap restore, ReadMs
	// the heap-fallback restore (both min over rounds).
	BuildMs float64 `json:"build_ms"`
	SaveMs  float64 `json:"save_ms"`
	LoadMs  float64 `json:"load_ms"`
	ReadMs  float64 `json:"read_ms"`
	// SpeedupColdStart is BuildMs/LoadMs — the point of the snapshot
	// layer; the gate fails below the snapshot speedup floor (default
	// 50x: validation must stay bounded by page mapping, not rebuild).
	SpeedupColdStart float64 `json:"speedup_cold_start"`
	// Shards is K of the sharded half. MonoTreeNs is the monolithic
	// engine's full single-tree sweep; ShardDistNs is a sharded routed
	// distance (upward search + one cell-restricted sweep, ~n/K work).
	// RatioShardVsMono is the latter over the former — the gate fails
	// above the shard tolerance (default 1.10: serving a single-target
	// query from a shard must not cost more than a full monolithic
	// tree, with 10% slack for dispatch overhead).
	Shards           int     `json:"shards"`
	MonoTreeNs       float64 `json:"mono_tree_ns"`
	ShardDistNs      float64 `json:"shard_dist_ns"`
	RatioShardVsMono float64 `json:"ratio_shard_vs_mono"`
	// ShardTreeNs is the cross-shard scatter-gathered full tree and
	// SelectionSum the total selected vertices across cells (vs N for
	// one monolithic sweep) — the redundancy a cut pays; recorded, not
	// gated (both are properties of the partition, not regressions).
	ShardTreeNs  float64 `json:"shard_tree_ns"`
	SelectionSum int     `json:"selection_sum"`
}

// runSnapshot gates the snapshot layer end to end through the public
// API: preprocess once (the expensive baseline), save, then restore by
// mmap and by heap read; the mmap restore must beat the rebuild by the
// speedup floor. On top, a sharded front over the restored engine must
// answer routed single-target queries within the shard tolerance of
// one monolithic tree sweep.
func runSnapshot(out, preset string, minSpeedup, shardTolerance float64, shards int) error {
	g, err := fixtureGraph(roadnet.Preset(preset))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "benchsmoke-snap-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := dir + "/engine.snap"

	buildStart := time.Now()
	eng, err := phast.Preprocess(g, &phast.Options{SweepWorkers: 1})
	if err != nil {
		return err
	}
	buildMs := float64(time.Since(buildStart).Microseconds()) / 1000

	saveStart := time.Now()
	if err := eng.SaveSnapshotFile(path); err != nil {
		return err
	}
	saveMs := float64(time.Since(saveStart).Microseconds()) / 1000
	st, err := os.Stat(path)
	if err != nil {
		return err
	}

	// Restores are cheap enough to measure min-of-rounds; the loaded
	// engine must actually serve (one tree) so a restore that defers
	// faults cannot cheat the timer entirely — the warm sweep is inside
	// the timed region.
	loadMs, readMs := math.Inf(1), math.Inf(1)
	var loaded *phast.Engine
	for r := 0; r < rounds; r++ {
		start := time.Now()
		le, err := phast.LoadSnapshot(path, &phast.Options{SweepWorkers: 1})
		if err != nil {
			return err
		}
		le.Tree(0)
		if ms := float64(time.Since(start).Microseconds()) / 1000; ms < loadMs {
			loadMs = ms
		}
		loaded = le

		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		start = time.Now()
		re, err := phast.ReadSnapshot(bytes.NewReader(raw), &phast.Options{SweepWorkers: 1})
		if err != nil {
			return err
		}
		re.Tree(0)
		if ms := float64(time.Since(start).Microseconds()) / 1000; ms < readMs {
			readMs = ms
		}
	}

	// Sharded half over the mmap-restored engine.
	srv, err := loaded.ServeSharded(&phast.ShardedServeOptions{Shards: shards, Seed: 7})
	if err != nil {
		return err
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(7))
	n := g.NumVertices()
	pairs := make([][2]int32, 64)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	mono := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loaded.Tree(pairs[i%len(pairs)][0])
		}
	})
	dist := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := srv.Distance(nil, p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	tree := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := srv.Tree(nil, pairs[i%len(pairs)][0])
			if err != nil {
				b.Fatal(err)
			}
			res.Release()
		}
	})
	selSum := 0
	for _, s := range srv.SelectionSizes() {
		selSum += s
	}

	rep := SnapshotReport{
		GoVersion:        runtime.Version(),
		GOARCH:           runtime.GOARCH,
		Instance:         preset + "/dfs",
		N:                n,
		M:                g.NumArcs(),
		SnapshotBytes:    st.Size(),
		BuildMs:          buildMs,
		SaveMs:           saveMs,
		LoadMs:           loadMs,
		ReadMs:           readMs,
		SpeedupColdStart: buildMs / loadMs,
		Shards:           shards,
		MonoTreeNs:       float64(mono.NsPerOp()),
		ShardDistNs:      float64(dist.NsPerOp()),
		RatioShardVsMono: float64(dist.NsPerOp()) / float64(mono.NsPerOp()),
		ShardTreeNs:      float64(tree.NsPerOp()),
		SelectionSum:     selSum,
	}
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("snapshot: %d bytes; build %.1f ms, save %.1f ms, mmap load %.2f ms, heap read %.2f ms\n",
		rep.SnapshotBytes, rep.BuildMs, rep.SaveMs, rep.LoadMs, rep.ReadMs)
	fmt.Printf("snapshot cold-start speedup: %.0fx (gate: ≥ %.0f)\n", rep.SpeedupColdStart, minSpeedup)
	fmt.Printf("sharded k=%d: routed distance %.0f ns vs monolithic tree %.0f ns (ratio %.3f, gate: ≤ %.2f); cross-shard tree %.0f ns, Σ|selection| %d (n=%d)\n",
		shards, rep.ShardDistNs, rep.MonoTreeNs, rep.RatioShardVsMono, shardTolerance, rep.ShardTreeNs, rep.SelectionSum, n)

	if rep.SpeedupColdStart < minSpeedup {
		return fmt.Errorf("mmap cold start is only %.1fx faster than rebuild (floor %.0f)", rep.SpeedupColdStart, minSpeedup)
	}
	if rep.RatioShardVsMono > shardTolerance {
		return fmt.Errorf("sharded routed distance is %.3fx a monolithic tree (tolerance %.2f)", rep.RatioShardVsMono, shardTolerance)
	}
	return nil
}

func main() {
	var (
		mode = flag.String("mode", "all", "which gates to run: sweep, chbuild, customize, snapshot, or all")
		out  = flag.String("out", "BENCH_3.json", "sweep report path")
		// 1.15 rather than a tight 1.02: shared CI hosts show ±10%
		// run-to-run jitter even with interleaved fresh-engine rounds,
		// and the gates exist to catch real regressions (the sweep
		// suddenly 2x slower, parallel build losing to sequential), not
		// to flake on scheduler noise. The recorded ratios in the reports
		// carry the actual measurements.
		tolerance  = flag.Float64("tolerance", 1.15, "max allowed sweep/stream ratio over its recorded baseline (and parallel/sequential build time ratio) before failing")
		chbuildOut = flag.String("chbuild-out", "BENCH_4.json", "chbuild report path")
		// 1.10, the tolerance of the pooled-vs-fork-join gate the pooled
		// rows of the sweep gate replaced: retiring that gate must not
		// loosen what the pooled scheduler is held to.
		schedTolerance = flag.Float64("sched-tolerance", 1.10, "max allowed pooled sweep/stream ratio over its recorded baseline before failing")
		preset         = flag.String("preset", "europe-m", "roadnet instance preset")
		customizeOut   = flag.String("customize-out", "BENCH_6.json", "customize report path")
		// 0.20: customization must cost at most a fifth of the full
		// re-contraction it replaces; measured ratios run well under 1%,
		// so this gate has enormous slack against jitter while still
		// catching a customization path that degenerated to rebuild cost.
		customizeTolerance = flag.Float64("customize-tolerance", 0.20, "max allowed customize/build time ratio before failing")
		// europe-xs, not -preset: the baseline side (all-pairs rebuild)
		// is minutes-long at europe-m — see the package comment.
		customizePreset = flag.String("customize-preset", "europe-xs", "roadnet preset for the customize gate")
		snapshotOut     = flag.String("snapshot-out", "BENCH_8.json", "snapshot report path")
		// 50: restoring from a snapshot must be a different complexity
		// class than rebuilding — page mapping plus validation versus a
		// full CH contraction. Measured speedups run in the hundreds at
		// europe-m; 50 leaves room for slow filesystems.
		snapshotSpeedup = flag.Float64("snapshot-speedup", 50, "min allowed build/load cold-start speedup before failing")
		// 1.10: a routed single-target query (one cell-restricted sweep,
		// ~n/K work) must never cost more than the full monolithic tree
		// it replaces, modulo 10% dispatch overhead.
		snapshotShardTolerance = flag.Float64("snapshot-shard-tolerance", 1.10, "max allowed sharded-distance/monolithic-tree time ratio before failing")
		snapshotShards         = flag.Int("snapshot-shards", 4, "shard count K of the sharded serving half")
	)
	flag.Parse()
	runs := map[string]func() error{
		"sweep":     func() error { return runSweep(*out, *preset, *tolerance, *schedTolerance) },
		"chbuild":   func() error { return runCHBuild(*chbuildOut, *preset, *tolerance) },
		"customize": func() error { return runCustomize(*customizeOut, *customizePreset, *customizeTolerance) },
		"snapshot": func() error {
			return runSnapshot(*snapshotOut, *preset, *snapshotSpeedup, *snapshotShardTolerance, *snapshotShards)
		},
	}
	var selected []func() error
	switch *mode {
	case "all":
		selected = []func() error{runs["sweep"], runs["chbuild"], runs["customize"], runs["snapshot"]}
	case "sweep", "chbuild", "customize", "snapshot":
		selected = []func() error{runs[*mode]}
	default:
		fmt.Fprintf(os.Stderr, "benchsmoke: unknown -mode %q (sweep, chbuild, customize, snapshot, all)\n", *mode)
		os.Exit(2)
	}
	for _, fn := range selected {
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "benchsmoke:", err)
			os.Exit(1)
		}
	}
}
