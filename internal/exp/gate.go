package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"phast/internal/graph"
	"phast/internal/layout"
	"phast/internal/roadnet"
)

// The gated drivers (bound, chbuild, customize, snapshot) measure on the
// gate fixture and, when Config.Reports names a directory, write their
// BENCH report there and judge it with these constants.
const (
	// sweepTolerance bounds the sequential sweep/stream ratios over their
	// recorded baseline: 1.15, not a tight 1.02, because shared hosts show
	// ±10% run-to-run jitter even with interleaved fresh-engine rounds,
	// and the gate exists to catch real regressions, not scheduler noise.
	sweepTolerance = 1.15
	// pooledSweepTolerance bounds the pooled ratios: 1.10, the tolerance
	// of the pooled-vs-fork-join gate the pooled rows replaced, so
	// retiring that gate did not loosen the pooled scheduler's bound.
	pooledSweepTolerance = 1.10
	// chbuildTolerance bounds the NumCPU-worker CH build over the
	// sequential one: the parallel build may lose by jitter, no more.
	chbuildTolerance = 1.15
	// customizeMaxRatio bounds customization over the rebuild it
	// replaces. Measured ratios run under 1%, so a fifth has ample slack
	// and still catches a path that degenerated to rebuild cost.
	customizeMaxRatio = 0.20
	// customizePreset is the customize fixture whatever the suite preset:
	// its baseline, an all-pairs contraction, is minutes-long at
	// europe-m, and the ratio is scale-robust in customization's favour
	// (both sides grow with the triangle count).
	customizePreset = roadnet.PresetEuropeXS
	// snapshotMinSpeedup floors rebuild time over mmap-restore time:
	// page mapping plus validation must stay a different complexity
	// class than a CH contraction. Measured speedups run in the hundreds
	// at europe-m; 50 leaves room for slow filesystems.
	snapshotMinSpeedup = 50
	// shardTolerance bounds a sharded routed distance (one
	// cell-restricted sweep, ~n/K work) over the monolithic tree it
	// replaces, with 10% slack for dispatch overhead.
	shardTolerance = 1.10
	// gateShards is K of the snapshot gate's sharded half.
	gateShards = 4
)

// fixtureGraph returns the gate fixture's graph for preset: travel
// times in DFS layout, the layout and weights of the root bench_test.go
// fixture. Its instance string is fixtureInstance(preset).
func fixtureGraph(preset roadnet.Preset) (*graph.Graph, error) {
	net, err := roadnet.GeneratePreset(preset, roadnet.TravelTime)
	if err != nil {
		return nil, err
	}
	return net.Graph.Permute(layout.DFS(net.Graph, 0))
}

func fixtureInstance(preset roadnet.Preset) string { return string(preset) + "/dfs" }

// benchHost and benchFixture open every BENCH report: the toolchain
// that measured it, and the instance it measured.
type benchHost struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
}

type benchFixture struct {
	Instance string `json:"instance"`
	N        int    `json:"n"`
	M        int    `json:"m"`
}

func thisHost() benchHost { return benchHost{runtime.Version(), runtime.GOARCH} }

func onFixture(preset roadnet.Preset, g *graph.Graph) benchFixture {
	return benchFixture{fixtureInstance(preset), g.NumVertices(), g.NumArcs()}
}

// gate records one gated driver's outcome: it writes rep as JSON to
// name in the report directory, notes the verdict under t, and joins a
// failed verdict into e.GateErr. Without a report directory it does
// nothing: no file is written and no gate applies.
func (e *Env) gate(t *Table, name string, rep any, verdict error) error {
	if e.Cfg.Reports == "" {
		return nil
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.Cfg.Reports, name), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if verdict == nil {
		t.AddNote("gate passed (%s)", name)
		return nil
	}
	t.AddNote("gate FAILED (%s): %v", name, verdict)
	e.GateErr = errors.Join(e.GateErr, fmt.Errorf("%s: %w", name, verdict))
	return nil
}

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
