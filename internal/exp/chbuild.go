package exp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"phast/internal/ch"
)

// chbuildResult is one measured preprocessing configuration.
type chbuildResult struct {
	Workers         int     `json:"workers"`
	BuildMs         float64 `json:"build_ms"` // min over rounds
	Shortcuts       int     `json:"shortcuts"`
	Batches         int     `json:"batches"`
	AvgBatch        float64 `json:"avg_batch"`
	MaxBatch        int     `json:"max_batch"`
	WitnessSearches int64   `json:"witness_searches"`
	LazyRequeues    int64   `json:"-"` // table only, not in BENCH_4.json
}

// chbuildReport is the BENCH_4.json schema: the chbuild scaling gate.
type chbuildReport struct {
	benchHost
	NumCPU int `json:"num_cpu"`
	benchFixture
	// SpeedupParallel is sequential build wall time divided by the
	// NumCPU-worker wall time (>1 means the parallel build wins; 1.0 by
	// construction on a single-core host).
	SpeedupParallel float64 `json:"speedup_parallel"`
	// ShortcutRatio is NumCPU-worker shortcuts over sequential shortcuts.
	// The batch contractor is deterministic across worker counts, so any
	// value other than 1.0 is a regression.
	ShortcutRatio float64         `json:"shortcut_ratio"`
	Results       []chbuildResult `json:"results"`
}

// chbuildRounds is how many interleaved measurements each worker count
// gets (minimum wall time reported); preprocessing runs seconds per
// round, so two rounds balance jitter rejection against run time.
const chbuildRounds = 2

// sameShortcuts checks that every worker count built the same number of
// shortcuts: the contractor is deterministic across Workers, so any
// difference is a bug, not a quality trade-off.
func sameShortcuts(results []chbuildResult) error {
	for _, r := range results[1:] {
		if r.Shortcuts != results[0].Shortcuts {
			return fmt.Errorf("shortcut count changed with workers=%d: %d vs %d at workers=%d",
				r.Workers, r.Shortcuts, results[0].Shortcuts, results[0].Workers)
		}
	}
	return nil
}

// chbuildVerdict is the BENCH_4 gate: the same hierarchy at every worker
// count, and the NumCPU-worker build (the last result) within
// chbuildTolerance × the sequential one (the first). A single-CPU host
// measures one worker count and skips the time half.
func chbuildVerdict(rep chbuildReport) error {
	if err := sameShortcuts(rep.Results); err != nil {
		return err
	}
	seq, par := rep.Results[0], rep.Results[len(rep.Results)-1]
	if par.BuildMs > seq.BuildMs*chbuildTolerance {
		return fmt.Errorf("parallel build (%d workers) is %.3fx sequential time (tolerance %.2f)",
			par.Workers, par.BuildMs/seq.BuildMs, chbuildTolerance)
	}
	return nil
}

// ChBuild is the §VIII-A-style preprocessing scaling table for the
// batch-parallel contractor and the chbuild gate (BENCH_4.json): build
// wall time, shortcut count, batch shape, witness-search volume and
// speedup at 1, 2, 4 and NumCPU workers (capped at NumCPU), on the gate
// fixture, over chbuildRounds rounds in alternating order.
func ChBuild(e *Env) ([]*Table, error) {
	g, err := fixtureGraph(e.Cfg.Preset)
	if err != nil {
		return nil, err
	}
	var results []chbuildResult
	ws := []int{1, 2, 4, runtime.NumCPU()}
	slices.Sort(ws)
	for _, w := range slices.Compact(ws) {
		if w <= runtime.NumCPU() {
			results = append(results, chbuildResult{Workers: w, BuildMs: math.Inf(1)})
		}
	}
	for r := 0; r < chbuildRounds; r++ {
		for j := range results {
			// Alternate run order across rounds so frequency ramp-up and
			// allocator state do not bias one configuration.
			i := j
			if r%2 == 1 {
				i = len(results) - 1 - j
			}
			w := results[i].Workers
			var bs ch.BuildStats
			start := time.Now()
			h := ch.Build(g, ch.Options{Workers: w, Stats: &bs})
			ms := float64(time.Since(start).Microseconds()) / 1000
			results[i] = chbuildResult{Workers: w, BuildMs: min(results[i].BuildMs, ms),
				Shortcuts: h.NumShortcuts, Batches: bs.Batches, AvgBatch: bs.AvgBatch(), MaxBatch: bs.MaxBatch,
				WitnessSearches: bs.WitnessSearches, LazyRequeues: bs.LazyRequeues}
			e.logf("chbuild workers=%d: %.0f ms, %d batches, %d witness searches", w, ms, bs.Batches, bs.WitnessSearches)
		}
	}
	// A correctness check, applied with or without a report directory.
	if err := sameShortcuts(results); err != nil {
		return nil, err
	}
	seq, par := results[0], results[len(results)-1]
	rep := chbuildReport{
		benchHost:       thisHost(),
		NumCPU:          runtime.NumCPU(),
		benchFixture:    onFixture(e.Cfg.Preset, g),
		SpeedupParallel: seq.BuildMs / par.BuildMs,
		ShortcutRatio:   float64(par.Shortcuts) / float64(seq.Shortcuts),
		Results:         results,
	}

	t := &Table{
		ID:    "chbuild",
		Title: "parallel batched CH preprocessing on " + rep.Instance,
		Headers: []string{"workers", "build [ms]", "speedup", "shortcuts",
			"batches", "avg batch", "max batch", "witness searches", "lazy requeues"},
	}
	for _, r := range results {
		t.AddRow(itoa(r.Workers), f1(r.BuildMs), f2(seq.BuildMs/r.BuildMs)+"x", itoa(r.Shortcuts),
			itoa(r.Batches), f1(r.AvgBatch), itoa(r.MaxBatch),
			fmt.Sprint(r.WitnessSearches), fmt.Sprint(r.LazyRequeues))
	}
	t.AddNote("min over %d rounds in alternating order; hierarchies are identical across worker counts (deterministic batch order)", chbuildRounds)
	if err := e.gate(t, "BENCH_4.json", &rep, chbuildVerdict(rep)); err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}
