package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"phast/internal/bandwidth"
	"phast/internal/ch"
	"phast/internal/core"
)

// sweepRound is one round of the sweep gate: the fastest burst of
// bandwidth.Sequential passes over the fixture's downward graph, and of
// the packed single-tree and k=16 sweeps, sequential and pooled, on the
// round's fresh engines.
type sweepRound struct {
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

// sweepBaseline is the recorded reference the sweep gate compares
// against: median ns per tree ÷ stream time, for one tree and per tree
// of a k=16 sweep, sequential and pooled, with the toolchain that
// recorded them.
type sweepBaseline struct {
	GoVersion        string  `json:"go_version"`
	RatioTree        float64 `json:"ratio_tree"`
	RatioMulti       float64 `json:"ratio_multi_k16"`
	RatioTreePooled  float64 `json:"ratio_tree_pooled"`
	RatioMultiPooled float64 `json:"ratio_multi_k16_pooled"`
}

// sweepReport is the BENCH_3.json schema: the sweep gate. Dividing each
// sweep by the sequential stream over the same bytes (the Section
// VIII-B lower bound) makes the ratios comparable across runs on hosts
// of different speed, so they gate against a recorded baseline.
type sweepReport struct {
	benchHost
	benchFixture
	// PooledWorkers is the worker count of the pooled sweeps:
	// max(2, NumCPU), so the scheduler engages even on one CPU.
	PooledWorkers int `json:"pooled_workers"`
	// The ratios are the medians over rounds of ns per tree ÷ stream
	// time; Baseline is carried forward unchanged.
	RatioTree        float64       `json:"ratio_tree"`
	RatioMulti       float64       `json:"ratio_multi_k16"`
	RatioTreePooled  float64       `json:"ratio_tree_pooled"`
	RatioMultiPooled float64       `json:"ratio_multi_k16_pooled"`
	Baseline         sweepBaseline `json:"baseline"`
	Rounds           []sweepRound  `json:"rounds"`
}

// sweepGateRounds is the sweep gate's round count: it gates on a median,
// so it takes an odd count large enough that one disturbed round cannot
// move the verdict. Each round constructs fresh engines, so allocation
// placement, CPU frequency ramp-up and run order vary across rounds
// instead of biasing every measurement the same way.
const sweepGateRounds = 5

// sweepBursts is how many short interleaved bursts of each measurement
// one round takes; a round keeps each measurement's fastest burst. On a
// shared host the stream and the sweeps slow down together when a
// neighbour takes memory bandwidth or CPU, so timing them in alternation
// over ~10 ms bursts lets that drift cancel in their ratio, and the
// fastest burst drops the interrupted ones.
const sweepBursts = 24

// readSweepBaseline returns the baseline recorded in the report at
// path for instance, or nil when no report exists there yet. A report
// without a full baseline (sequential and pooled), or one recorded on
// another instance, is an error, so a gate can neither silently
// re-baseline itself nor judge one instance against another's ratios.
func readSweepBaseline(path, instance string) (*sweepBaseline, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rep sweepReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Instance != instance {
		return nil, fmt.Errorf("%s records instance %q, this run measures %q", path, rep.Instance, instance)
	}
	if b := rep.Baseline; b.RatioTree <= 0 || b.RatioMulti <= 0 || b.RatioTreePooled <= 0 || b.RatioMultiPooled <= 0 {
		return nil, fmt.Errorf("%s records no complete sweep baseline (sequential and pooled)", path)
	}
	return &rep.Baseline, nil
}

// sweepVerdict carries base into rep and judges rep's medians against
// it: sequential ratios within sweepTolerance × baseline, pooled ones
// within pooledSweepTolerance ×. A nil base records rep's own medians as
// the baseline, and the run passes.
func sweepVerdict(rep *sweepReport, base *sweepBaseline) error {
	if base == nil {
		rep.Baseline = sweepBaseline{GoVersion: rep.GoVersion, RatioTree: rep.RatioTree, RatioMulti: rep.RatioMulti,
			RatioTreePooled: rep.RatioTreePooled, RatioMultiPooled: rep.RatioMultiPooled}
		return nil
	}
	rep.Baseline = *base
	gates := []struct {
		name           string
		got, base, tol float64
	}{
		{"single-tree sweep", rep.RatioTree, base.RatioTree, sweepTolerance},
		{"k=16 sweep", rep.RatioMulti, base.RatioMulti, sweepTolerance},
		{"pooled single-tree sweep", rep.RatioTreePooled, base.RatioTreePooled, pooledSweepTolerance},
		{"pooled k=16 sweep", rep.RatioMultiPooled, base.RatioMultiPooled, pooledSweepTolerance},
	}
	for _, g := range gates {
		if g.got > g.base*g.tol {
			return fmt.Errorf("%s is %.3fx the stream time per tree, baseline %.3fx (tolerance %.2f)", g.name, g.got, g.base, g.tol)
		}
	}
	return nil
}

// Bound is the Section VIII-B experiment and the sweep gate
// (BENCH_3.json): how close the packed sweep comes to a sequential
// stream over the same downward graph, the paper's "PHAST runs within
// 2.6x of the memory bound" argument. On the gate fixture, each of
// sweepGateRounds rounds builds fresh engines and times, in rotating
// order and in short interleaved bursts, the stream and the single-tree
// and k=16 sweeps, sequential and on the persistent scheduler with
// max(2, NumCPU) workers (so the scheduler engages even on one CPU). The
// gated quantities are the medians over rounds of ns per tree ÷ stream
// time. The vertex-loop traversal and the parallel stream are context
// rows, measured once and not gated.
func Bound(e *Env) ([]*Table, error) {
	instance := fixtureInstance(e.Cfg.Preset)
	path := filepath.Join(e.Cfg.Reports, "BENCH_3.json")
	var base *sweepBaseline
	var err error
	if e.Cfg.Reports != "" {
		if base, err = readSweepBaseline(path, instance); err != nil {
			return nil, err
		}
	}
	g, err := fixtureGraph(e.Cfg.Preset)
	if err != nil {
		return nil, err
	}
	h := ch.Build(g, ch.Options{})
	rng := rand.New(rand.NewSource(7))
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32(rng.Intn(g.NumVertices()))
	}
	rep := sweepReport{benchHost: thisHost(), benchFixture: onFixture(e.Cfg.Preset, g), PooledWorkers: max(2, runtime.NumCPU())}

	dist := make([]uint32, g.NumVertices())
	const k = 16
	batch := make([]int32, k)
	var treeStats, multiStats core.SchedStats // the last round's pooled engines
	var last *core.Engine
	for r := 0; r < sweepGateRounds; r++ {
		var engs [4]*core.Engine // tree, multi, tree pooled, multi pooled
		for i, w := range []int{1, 1, rep.PooledWorkers, rep.PooledWorkers} {
			if engs[i], err = core.NewEngine(h, core.Options{Mode: core.SweepReordered, Workers: w}); err != nil {
				return nil, err
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
		round := sweepRound{StreamNs: inf, TreeNsPerTree: inf, MultiNsPerTree: inf,
			TreePooledNsPerTree: inf, MultiPooledNsPerTree: inf}
		stream := func() { bandwidth.Sequential(downIn, dist, 1) }
		treeBurst := func(sweep func(int32)) float64 { return burstNs(8, func() { sweep(src()) }) }
		multiBurst := func(sweep func([]int32, bool)) float64 {
			return burstNs(2, func() {
				for j := range batch {
					batch[j] = src()
				}
				sweep(batch, false)
			}) / k
		}
		steps := []func(){
			func() { round.StreamNs = min(round.StreamNs, burstNs(32, stream)) },
			func() { round.TreeNsPerTree = min(round.TreeNsPerTree, treeBurst(tree.Tree)) },
			func() { round.MultiNsPerTree = min(round.MultiNsPerTree, multiBurst(multi.MultiTree)) },
			func() { round.TreePooledNsPerTree = min(round.TreePooledNsPerTree, treeBurst(treePooled.TreeParallel)) },
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
		treeStats, multiStats, last = treePooled.SchedStats(), multiPooled.SchedStats(), tree
	}
	col := func(f func(sweepRound) float64) float64 {
		xs := make([]float64, len(rep.Rounds))
		for i, r := range rep.Rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	rep.RatioTree = col(func(r sweepRound) float64 { return r.RatioTree })
	rep.RatioMulti = col(func(r sweepRound) float64 { return r.RatioMulti })
	rep.RatioTreePooled = col(func(r sweepRound) float64 { return r.RatioTreePooled })
	rep.RatioMultiPooled = col(func(r sweepRound) float64 { return r.RatioMultiPooled })
	streamNs := col(func(r sweepRound) float64 { return r.StreamNs })

	// Context rows: the same bytes walked vertex by vertex, and split over every core.
	downIn := last.Hierarchy().DownIn
	trav := bandwidth.Traversal(downIn, dist, 5)
	par := bandwidth.SequentialParallel(downIn, dist, 5, MaxProcs())
	streamBytes := bandwidth.BytesTouched(downIn, dist)

	t := &Table{
		ID:    "bound",
		Title: fmt.Sprintf("sweep vs the Sec. VIII-B memory bounds on %s (n=%d)", instance, rep.N),
		Headers: []string{"measurement", "time/tree [ms]", "modeled MB", "GB/s", "vs stream",
			"chunks/sweep", "stalls/sweep", "idle/sweep"},
	}
	row := func(name string, ns float64, bytes int64, ratio float64, sched []string) {
		d := time.Duration(ns)
		t.AddRow(append([]string{name, ms(d), mb(bytes), f2(bandwidth.GBps(bytes, d)), fmt.Sprintf("%.2fx", ratio)}, sched...)...)
	}
	none := []string{"-", "-", "-"}
	row("sequential stream (lower bound)", streamNs, streamBytes, 1, none)
	row("vertex-loop traversal", float64(trav), streamBytes, float64(trav)/streamNs, none)
	row(fmt.Sprintf("parallel stream, %d cores", MaxProcs()), float64(par), streamBytes, float64(par)/streamNs, none)
	row("PHAST tree, sequential", col(func(r sweepRound) float64 { return r.TreeNsPerTree }),
		last.SweepBytes(1), rep.RatioTree, none)
	row(fmt.Sprintf("PHAST k=%d per tree, sequential", k), col(func(r sweepRound) float64 { return r.MultiNsPerTree }),
		last.SweepBytes(k)/k, rep.RatioMulti, none)
	mark, cols := schedCols(treeStats)
	row(fmt.Sprintf("PHAST tree, pooled (%d workers%s)", rep.PooledWorkers, mark),
		col(func(r sweepRound) float64 { return r.TreePooledNsPerTree }), last.SweepBytes(1), rep.RatioTreePooled, cols)
	mark, cols = schedCols(multiStats)
	row(fmt.Sprintf("PHAST k=%d per tree, pooled (%d workers%s)", k, rep.PooledWorkers, mark),
		col(func(r sweepRound) float64 { return r.MultiPooledNsPerTree }), last.SweepBytes(k)/k, rep.RatioMultiPooled, cols)

	csrBytes := int64(downIn.NumVertices()+1)*4 + int64(downIn.NumArcs())*8 + int64(downIn.NumVertices())
	t.AddNote("packed stream: %d words = %s MB arc-major layout vs %s MB CSR+mark",
		last.Packed().Words(), mb(last.Packed().MemoryBytes()), mb(csrBytes))
	t.AddNote("PHAST rows: medians over %d rounds of fresh engines, each keeping the fastest of %d interleaved bursts; vs stream is the median per-round ratio and includes the upward CH search",
		sweepGateRounds, sweepBursts)
	t.AddNote("pooled single-tree speedup over sequential: %.2fx (not gated)", rep.RatioTree/rep.RatioTreePooled)
	t.AddNote("paper: stream 65.6ms, traversal 153ms, PHAST 172ms on 18M vertices — PHAST within 2.6x of the stream")

	if e.Cfg.Reports != "" {
		if base == nil {
			t.AddNote("no report at %s: this run is recorded as the baseline", path)
		} else {
			t.AddNote("gate: sequential ≤ %.2f × baseline %.3fx/%.3fx, pooled ≤ %.2f × baseline %.3fx/%.3fx (%s)",
				sweepTolerance, base.RatioTree, base.RatioMulti,
				pooledSweepTolerance, base.RatioTreePooled, base.RatioMultiPooled, base.GoVersion)
		}
	}
	if err := e.gate(t, "BENCH_3.json", &rep, sweepVerdict(&rep, base)); err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// schedCols renders a pooled row's chunks, stalls and idle wakeups per
// sweep from its engine's SchedStats. A pooled engine whose sweep fits
// one chunk never reaches the pool (SchedStats counts no sweep), so the
// row ran sequentially, and mark says so for the row's name.
func schedCols(st core.SchedStats) (mark string, cols []string) {
	if st.Sweeps == 0 {
		return "; one-chunk sequential fallback", []string{"1", "-", "-"}
	}
	s := float64(st.Sweeps)
	return "", []string{f1(float64(st.Chunks) / s), f2(float64(st.Stalls) / s), f2(float64(st.Idle) / s)}
}
