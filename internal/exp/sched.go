package exp

import (
	"fmt"
	"time"

	"phast/internal/core"
)

// Sched compares the two sweep drivers over identical kernels: the
// sequential sweep and the persistent dependency-bounded chunk
// scheduler (barrier-relaxed Section V). The pooled row runs at max(2,
// GOMAXPROCS) workers so the scheduling machinery engages even on a
// single-CPU host — there the comparison isolates pure scheduling
// overhead (two goroutines timeslicing one core), while a multi-core
// host shows the actual speedup. The scheduler-counter columns come
// from core.SchedStats and only the pooled row has them: chunks per
// sweep is fixed by the chunk boundaries, stalls count chunk starts
// that waited on the dependency frontier.
func Sched(e *Env) ([]*Table, error) {
	workers := MaxProcs()
	if workers < 2 {
		workers = 2
	}
	t := &Table{
		ID:    "sched",
		Title: fmt.Sprintf("sweep drivers on %s (parallel rows: %d workers)", e.Cfg.Preset, workers),
		Headers: []string{"driver", "workers", "tree [ms]", "speedup",
			"multi k=16 [ms/tree]", "chunks/sweep", "stalls/sweep", "idle wakeups"},
	}
	k := 16
	multiSources := e.randSources(k)

	rows := []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"pooled scheduler", workers},
	}
	var baseTree time.Duration
	for _, r := range rows {
		eng, err := core.NewEngine(e.H, core.Options{
			Mode: core.SweepReordered, Workers: r.workers,
		})
		if err != nil {
			return nil, err
		}
		eng.TreeParallel(e.Sources[0]) // warm the buffers outside the timer
		before := eng.SchedStats()
		tree := e.perTree(func(s int32) { eng.TreeParallel(s) })
		multi := e.perTree(func(s int32) {
			multiSources[0] = s
			eng.MultiTreeParallel(multiSources, false)
		}) / time.Duration(k)
		after := eng.SchedStats()
		if baseTree == 0 {
			baseTree = tree
		}
		chunksCol, stallsCol, idleCol := "-", "-", "-"
		if sweeps := after.Sweeps - before.Sweeps; sweeps > 0 {
			chunksCol = fmt.Sprintf("%.0f", float64(after.Chunks-before.Chunks)/float64(sweeps))
			stallsCol = fmt.Sprintf("%.1f", float64(after.Stalls-before.Stalls)/float64(sweeps))
			idleCol = fmt.Sprintf("%d", after.Idle-before.Idle)
		}
		t.AddRow(
			r.name,
			fmt.Sprintf("%d", r.workers),
			fmt.Sprintf("%.2f", float64(tree.Microseconds())/1000),
			fmt.Sprintf("%.2fx", float64(baseTree)/float64(tree)),
			fmt.Sprintf("%.2f", float64(multi.Microseconds())/1000),
			chunksCol, stallsCol, idleCol,
		)
		e.logf("sched %s: %v/tree, %v/tree at k=%d", r.name, tree, multi, k)
	}
	t.AddNote("both drivers run identical chunk kernels; the pooled row scans them chunk by chunk on the persistent pool")
	t.AddNote("pooled chunks are cut to the cache byte budget (Options.ChunkBytes, default half the detected L2); stalls wait on the dependency frontier, not a level barrier")
	t.AddNote("CI gates the pooled sweeps against a recorded baseline via cmd/benchsmoke -mode sweep (BENCH_3.json)")
	return []*Table{t}, nil
}
