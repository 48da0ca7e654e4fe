package exp

import (
	"fmt"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/layout"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// Table1 reproduces Table I: time per tree for Dijkstra's algorithm
// (binary heap, Dial, smart queue), BFS, and PHAST (basic rank order,
// level-reordered, and reordered + all cores) under three graph layouts
// — random, input (as generated), and DFS.
func Table1(e *Env) ([]*Table, error) {
	n := e.G.NumVertices()
	layouts := []struct {
		name string
		perm []int32
	}{
		{"random", layout.Random(n, e.rng)},
		{"input", layout.Identity(n)},
		{"DFS", layout.DFS(e.G, int32(e.rng.Intn(n)))},
	}

	t := &Table{
		ID:      "table1",
		Title:   "time per tree [ms] on " + string(e.Cfg.Preset),
		Headers: []string{"algorithm", "details", "random", "input", "DFS"},
	}
	type rowSpec struct {
		algorithm, details string
		run                func(g *graph.Graph, h *ch.Hierarchy, perm []int32) (time.Duration, error)
	}
	dijkstra := func(kind pq.Kind) func(*graph.Graph, *ch.Hierarchy, []int32) (time.Duration, error) {
		return func(g *graph.Graph, _ *ch.Hierarchy, perm []int32) (time.Duration, error) {
			d := sssp.NewDijkstra(g, kind)
			d.Run(perm[e.Sources[0]]) // warm
			return e.perTree(func(s int32) { d.Run(perm[s]) }), nil
		}
	}
	phast := func(mode core.SweepMode, workers int, parallel bool) func(*graph.Graph, *ch.Hierarchy, []int32) (time.Duration, error) {
		return func(_ *graph.Graph, h *ch.Hierarchy, perm []int32) (time.Duration, error) {
			eng, err := core.NewEngine(h, core.Options{Mode: mode, Workers: workers})
			if err != nil {
				return 0, err
			}
			eng.Tree(perm[e.Sources[0]]) // warm
			if parallel {
				return e.perTree(func(s int32) { eng.TreeParallel(perm[s]) }), nil
			}
			return e.perTree(func(s int32) { eng.Tree(perm[s]) }), nil
		}
	}
	rows := []rowSpec{
		{"Dijkstra", "binary heap", dijkstra(pq.KindBinaryHeap)},
		{"Dijkstra", "Dial", dijkstra(pq.KindDial)},
		{"Dijkstra", "2-level buckets", dijkstra(pq.KindTwoLevel)},
		{"Dijkstra", "smart queue", dijkstra(pq.KindRadix)},
		{"BFS", "-", func(g *graph.Graph, _ *ch.Hierarchy, perm []int32) (time.Duration, error) {
			b := sssp.NewBFS(g)
			b.Run(perm[e.Sources[0]])
			return e.perTree(func(s int32) { b.Run(perm[s]) }), nil
		}},
		{"PHAST", "original ordering", phast(core.SweepRankOrder, 1, false)},
		{"PHAST", "reordered by level", phast(core.SweepReordered, 1, false)},
		{"PHAST", fmt.Sprintf("reordered + %d cores", MaxProcs()), phast(core.SweepReordered, MaxProcs(), true)},
	}

	cells := make([][]string, len(rows))
	for i := range cells {
		cells[i] = []string{rows[i].algorithm, rows[i].details}
	}
	for _, lay := range layouts {
		g, err := e.G.Permute(lay.perm)
		if err != nil {
			return nil, err
		}
		h, err := e.Hierarchy().Permute(lay.perm)
		if err != nil {
			return nil, err
		}
		e.logf("table1: layout %s", lay.name)
		for i, r := range rows {
			d, err := r.run(g, h, lay.perm)
			if err != nil {
				return nil, err
			}
			cells[i] = append(cells[i], ms(d))
		}
	}
	for _, c := range cells {
		t.AddRow(c...)
	}
	t.AddNote("sources per cell: %d; host parallelism: %d", len(e.Sources), MaxProcs())
	t.AddNote("paper shape: layout matters for every algorithm; sequential reordered PHAST beats Dijkstra ~16x")
	return []*Table{t}, nil
}
