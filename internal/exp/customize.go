package exp

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// customizeResult is one measured customization-path configuration.
type customizeResult struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"` // min over rounds
}

// customizeReport is the BENCH_6.json schema: the metric-customization
// gate.
type customizeReport struct {
	benchHost
	NumCPU int `json:"num_cpu"`
	benchFixture
	Shortcuts int   `json:"shortcuts"`
	Triangles int64 `json:"triangles"`
	// RatioCustomizeVsBuild is (Customize + pool-sharing engine mount)
	// time over (BuildCustomizable + engine) time; the gate fails above
	// customizeMaxRatio.
	RatioCustomizeVsBuild float64 `json:"ratio_customize_vs_build"`
	// SpeedupParallel is sequential customization time over pooled
	// NumCPU-worker customization time; 0 when skipped on a single-CPU
	// host.
	SpeedupParallel float64           `json:"speedup_parallel"`
	Results         []customizeResult `json:"results"`
}

// customizeRounds is how many measurements the (cheap) customization
// side gets; the expensive build side takes chbuildRounds.
const customizeRounds = 5

// customizeVerdict is the BENCH_6 gate: rebinding a metric costs at most
// customizeMaxRatio of the re-contraction it replaces.
func customizeVerdict(rep customizeReport) error {
	if rep.RatioCustomizeVsBuild > customizeMaxRatio {
		return fmt.Errorf("customization is %.3fx a full rebuild (tolerance %.2f)", rep.RatioCustomizeVsBuild, customizeMaxRatio)
	}
	return nil
}

// minMs runs fn rounds times and returns its fastest wall time in ms.
func minMs(rounds int, fn func() error) (float64, error) {
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		best = min(best, float64(time.Since(start).Microseconds())/1000)
	}
	return best, nil
}

// Customize measures the topology/metric split and is the customize
// gate (BENCH_6.json): a full from-scratch customizable build plus
// engine (what serving a new metric would cost without the split)
// against triangle-relaxation customization plus a pool-sharing engine
// mount, on the customizePreset fixture whatever the suite preset. Three
// metrics (car, truck, 5% closures) are customized and their PHAST
// trees verified against Dijkstra on the reweighted graph; on a
// multi-core host the pooled customization is timed against the
// sequential pass.
func Customize(e *Env) ([]*Table, error) {
	g, err := fixtureGraph(customizePreset)
	if err != nil {
		return nil, err
	}
	var topo *ch.Topology
	buildMs, err := minMs(chbuildRounds, func() error {
		tp, err := ch.BuildCustomizable(g, ch.Options{})
		if err != nil {
			return err
		}
		if _, err := core.NewEngine(tp.Hierarchy(), core.Options{Mode: core.SweepReordered, Workers: 1}); err != nil {
			return err
		}
		topo = tp
		return nil
	})
	if err != nil {
		return nil, err
	}
	base, err := core.NewEngine(topo.Hierarchy(), core.Options{Mode: core.SweepReordered, Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}

	ref := make([]uint32, g.NumArcs())
	for i, a := range g.ArcList() {
		ref[i] = a.Weight
	}
	reweight := func(f func(i int, x uint32) uint32) []uint32 {
		w := make([]uint32, len(ref))
		for i, x := range ref {
			w[i] = f(i, x)
		}
		return w
	}
	// Rebinding the reference metric must reproduce the reference
	// hierarchy's weights bit for bit.
	hRef, err := topo.Customize(ref, ch.CustomizeOptions{})
	if err != nil {
		return nil, err
	}
	if !hRef.Up.Equal(topo.Hierarchy().Up) || !hRef.Down.Equal(topo.Hierarchy().Down) {
		return nil, fmt.Errorf("customize: reference metric did not reproduce the reference hierarchy")
	}

	// Gated side: a perturbed metric (halved weights; any valid vector
	// does, the pass is metric-oblivious) rebound and mounted as a
	// sibling engine sharing the sweep layout and worker pool.
	half := reweight(func(_ int, x uint32) uint32 { return x / 2 })
	epoch := int64(0)
	custMs, err := minMs(customizeRounds, func() error {
		epoch++
		h2, err := topo.Customize(half, ch.CustomizeOptions{Epoch: epoch})
		if err != nil {
			return err
		}
		_, err = core.NewEngineSharingPool(base, h2)
		return err
	})
	if err != nil {
		return nil, err
	}

	rep := customizeReport{
		benchHost:    thisHost(),
		NumCPU:       runtime.NumCPU(),
		benchFixture: onFixture(customizePreset, g),
		Shortcuts:    topo.Hierarchy().NumShortcuts,
		Triangles:    topo.NumTriangles(),
		Results: []customizeResult{
			{Name: "BuildCustomizable_plus_engine", Ms: buildMs},
			{Name: "Customize_plus_engine", Ms: custMs},
		},
		RatioCustomizeVsBuild: custMs / buildMs,
	}

	t := &Table{
		ID:      "customize",
		Title:   fmt.Sprintf("metric customization on %s (n=%d, m=%d)", rep.Instance, rep.N, rep.M),
		Headers: []string{"path", "time [ms]", "vs rebuild", "verified trees"},
	}
	pct := func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v/buildMs) }
	t.AddRow("BuildCustomizable + engine (rebuild)", f2(buildMs), pct(buildMs), "-")
	t.AddRow("Customize + engine mount (halved metric)", f2(custMs), pct(custMs), "-")

	metrics := []struct {
		name    string
		weights func(i int, x uint32) uint32
	}{
		{"car (reference)", func(_ int, x uint32) uint32 { return x }},
		{"truck (scaled 3/2)", func(_ int, x uint32) uint32 { return x + x/2 }},
		{"closures (5% Inf)", func(i int, x uint32) uint32 {
			if i%20 == 0 {
				return graph.Inf
			}
			return x
		}},
	}
	sources := []int32{0, int32(g.NumVertices() / 3), int32(g.NumVertices() - 1)}
	for _, m := range metrics {
		w := reweight(m.weights)
		epoch++
		cstart := time.Now()
		h2, err := topo.Customize(w, ch.CustomizeOptions{Epoch: epoch, Name: m.name})
		if err != nil {
			return nil, err
		}
		cms := float64(time.Since(cstart).Microseconds()) / 1000
		gw, err := g.WithWeights(w)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngineSharingPool(base, h2)
		if err != nil {
			return nil, err
		}
		dij := sssp.NewDijkstra(gw, pq.KindBinaryHeap)
		for _, s := range sources {
			dij.Run(s)
			eng.Tree(s)
			for v := 0; v < g.NumVertices(); v++ {
				if got, want := eng.Dist(int32(v)), dij.Dist(int32(v)); got != want {
					return nil, fmt.Errorf("customize: metric %q distance %d->%d = %d, Dijkstra says %d",
						m.name, s, v, got, want)
				}
			}
		}
		t.AddRow(m.name, f2(cms), pct(cms), fmt.Sprintf("%d x %d vertices", len(sources), g.NumVertices()))
	}

	// Parallel half: the same customization on the persistent worker
	// pool, against the sequential pass alone (no engine mount) for a
	// like-for-like denominator. Meaningless when there is one CPU.
	if runtime.NumCPU() > 1 {
		parMs, err := minMs(customizeRounds, func() error {
			var st ch.CustomizeStats
			if _, err := topo.Customize(half, ch.CustomizeOptions{Pool: base.SchedPool(), Stats: &st}); err != nil {
				return err
			}
			if !st.Parallel {
				return fmt.Errorf("customize: a %d-worker pool ran the pass sequentially", runtime.NumCPU())
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		seqMs, err := minMs(customizeRounds, func() error {
			_, err := topo.Customize(half, ch.CustomizeOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results,
			customizeResult{Name: "Customize_parallel", Ms: parMs},
			customizeResult{Name: "Customize_sequential", Ms: seqMs})
		rep.SpeedupParallel = seqMs / parMs
		t.AddRow(fmt.Sprintf("Customize, pooled (%d workers)", runtime.NumCPU()), f2(parMs), pct(parMs), "-")
		t.AddRow("Customize, sequential", f2(seqMs), pct(seqMs), "-")
		t.AddNote("pooled customization speedup over sequential: %.2fx", rep.SpeedupParallel)
	}
	t.AddNote("one all-pairs contraction (%d shortcuts) serves every metric; customization rebinds weights via %d lower triangles",
		rep.Shortcuts, rep.Triangles)
	t.AddNote("rebuild and halved-metric rows: min over %d and %d rounds; every named metric's PHAST trees, on an engine mounted like the gated row, verified against Dijkstra",
		chbuildRounds, customizeRounds)
	if err := e.gate(t, "BENCH_6.json", &rep, customizeVerdict(rep)); err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}
