package exp

import (
	"fmt"
	"sync"
	"time"

	"phast/internal/core"
)

// Table2 reproduces Table II: average running time per tree when growing
// k trees per sweep (k ∈ {4,8,16}) on 1, 2 and 4 cores. Every k is
// relaxed in 4-wide register lane groups (the SSE substitute), so the
// paper's with/without-SSE pair is one column here. One engine clone
// runs per core, each sweeping its own k sources (the per-core
// parallelization of Section V combined with the multi-tree sweep of
// Section IV-B).
func Table2(e *Env) ([]*Table, error) {
	base, err := e.Engine(core.SweepReordered, 1)
	if err != nil {
		return nil, err
	}
	cores := []int{1, 2, 4}
	t := &Table{
		ID:      "table2",
		Title:   "time per tree [ms]; k labels relaxed in 4-wide register lane groups (SSE substitute)",
		Headers: []string{"sources/sweep"},
	}
	for _, c := range cores {
		t.Headers = append(t.Headers, fmt.Sprintf("%d core(s)", c))
	}
	for _, k := range []int{4, 8, 16} {
		row := []string{fmt.Sprintf("%d", k)}
		for _, c := range cores {
			row = append(row, ms(e.multiTreePerTree(base, k, c)))
		}
		t.AddRow(row...)
		e.logf("table2: k=%d done", k)
	}
	t.AddNote("host has %d hardware threads; core counts beyond that exercise the code path but cannot speed up", MaxProcs())
	t.AddNote("paper shape: larger k improves locality; 16 sources x 4 cores ~9x faster than 1x1")
	return []*Table{t}, nil
}

// multiTreePerTree runs `cores` engine clones concurrently, each
// performing one k-source sweep, and returns wall time / (cores*k).
func (e *Env) multiTreePerTree(base *core.Engine, k, cores int) time.Duration {
	engines := make([]*core.Engine, cores)
	batches := make([][]int32, cores)
	for i := range engines {
		engines[i] = base.Clone()
		batches[i] = e.randSources(k)
		engines[i].MultiTree(batches[i], false) // warm (allocates the k*n labels)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			engines[i].MultiTree(batches[i], false)
		}(i)
	}
	wg.Wait()
	return time.Since(start) / time.Duration(cores*k)
}
