package exp

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/machine"
	"phast/internal/roadnet"
)

// Config selects the instance and measurement effort for a run of the
// experiment suite.
type Config struct {
	// Preset picks the synthetic instance (default europe-s, ~16k
	// vertices, so the full suite runs in about a minute).
	Preset roadnet.Preset
	// Metric picks travel times (default) or distances.
	Metric roadnet.Metric
	// Sources is the number of random tree roots per measurement cell
	// (default 5).
	Sources int
	// GPUTrees caps the number of simulated-GPU tree constructions per
	// cell — the SIMT simulator executes every thread, so this is the
	// expensive knob (default 2).
	GPUTrees int
	// Seed drives source selection (default 42).
	Seed int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// SVGDir, when non-empty, receives SVG renderings of the figures
	// (fig1.svg from the level histogram, scaling.svg from the scaling
	// experiment) in addition to the text tables.
	SVGDir string
	// Reports, when non-empty, is the directory the gated drivers
	// (bound, chbuild, customize, snapshot) write their BENCH_*.json
	// reports into; their gates apply only then. The sweep gate reads its
	// baseline from the BENCH_3.json already there and records one only
	// when the file is missing.
	Reports string
}

func (c Config) withDefaults() Config {
	if c.Preset == "" {
		c.Preset = roadnet.PresetEuropeS
	}
	if c.Sources == 0 {
		c.Sources = 5
	}
	if c.GPUTrees == 0 {
		c.GPUTrees = 2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Env is the shared state of one experiment suite run: the instance in
// its "input" layout, the CH hierarchy built on it (on first use, see
// Hierarchy), and the sampled sources. Layout permutations and engines
// are derived per experiment.
type Env struct {
	Cfg     Config
	Net     *roadnet.Network
	G       *graph.Graph // input layout (as generated)
	Sources []int32
	Ref     machine.Spec
	// GateErr joins the verdicts of gates that failed (only with
	// Config.Reports set); the drivers still return their tables.
	GateErr error
	rng     *rand.Rand
	h       *ch.Hierarchy
}

// NewEnv generates the instance and samples the sources. CH
// preprocessing waits for the first Hierarchy call, since the gated
// drivers build their own hierarchies and never need it.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	e := &Env{Cfg: cfg, Ref: machine.Reference(), rng: rand.New(rand.NewSource(cfg.Seed))}
	net, err := roadnet.GeneratePreset(cfg.Preset, cfg.Metric)
	if err != nil {
		return nil, err
	}
	e.Net = net
	e.G = net.Graph
	e.logf("instance %s (%s): n=%d m=%d", cfg.Preset, cfg.Metric, e.G.NumVertices(), e.G.NumArcs())
	e.Sources = make([]int32, cfg.Sources)
	for i := range e.Sources {
		e.Sources[i] = int32(e.rng.Intn(e.G.NumVertices()))
	}
	return e, nil
}

func (e *Env) logf(format string, args ...any) {
	if e.Cfg.Log != nil {
		fmt.Fprintf(e.Cfg.Log, "  [exp] "+format+"\n", args...)
	}
}

// Hierarchy returns the CH hierarchy of the input layout, building it
// on the first call. Its construction draws nothing from the source
// stream, so Sources do not depend on whether or when it is built.
func (e *Env) Hierarchy() *ch.Hierarchy {
	if e.h == nil {
		start := time.Now()
		e.h = ch.Build(e.G, ch.Options{})
		e.logf("CH preprocessing: %v, %d shortcuts, %d levels",
			time.Since(start), e.h.NumShortcuts, e.h.MaxLevel+1)
	}
	return e.h
}

// Engine builds a PHAST engine over the environment's hierarchy.
func (e *Env) Engine(mode core.SweepMode, workers int) (*core.Engine, error) {
	return core.NewEngine(e.Hierarchy(), core.Options{Mode: mode, Workers: workers})
}

// perTree times fn once per source and returns the mean duration.
func (e *Env) perTree(fn func(s int32)) time.Duration {
	start := time.Now()
	for _, s := range e.Sources {
		fn(s)
	}
	return time.Since(start) / time.Duration(len(e.Sources))
}

// randSources draws k sources deterministically from the env's stream.
func (e *Env) randSources(k int) []int32 {
	out := make([]int32, k)
	for i := range out {
		out[i] = int32(e.rng.Intn(e.G.NumVertices()))
	}
	return out
}

// Runner is one experiment driver.
type Runner struct {
	ID   string
	Desc string
	Run  func(*Env) ([]*Table, error)
}

// Suite lists all experiment drivers in paper order.
func Suite() []Runner {
	return []Runner{
		{"fig1", "vertices per CH level", Fig1},
		{"table1", "single-tree performance across layouts", Table1},
		{"table2", "multiple trees: k, cores", Table2},
		{"table3", "GPHAST time and memory vs trees per sweep", Table3},
		{"table4", "machine catalogue", Table4},
		{"table5", "architecture impact on Dijkstra and PHAST", Table5},
		{"table6", "Dijkstra vs PHAST vs GPHAST, time and energy", Table6},
		{"table7", "other inputs: Europe/USA x time/distance", Table7},
		{"bound", "sweep vs the Sec. VIII-B memory bounds, sequential and pooled (gate: BENCH_3)", Bound},
		{"apps", "applications: arc flags, diameter, reach, betweenness", Apps},
		{"ablation", "design-choice ablations: priority terms, hop limits, sweep order", Ablation},
		{"rphast", "RPHAST extension: one-to-many restricted sweeps", RPHAST},
		{"scaling", "speedup growth with instance size", Scaling},
		{"chbuild", "parallel batched CH preprocessing scaling, Sec. VIII-A (gate: BENCH_4)", ChBuild},
		{"customize", "metric customization: triangle relaxation vs full rebuild (gate: BENCH_6)", Customize},
		{"snapshot", "snapshot cold start vs rebuild, sharded serving (gate: BENCH_8)", Snapshot},
	}
}

// MaxProcs reports the parallelism available to measured multicore rows.
func MaxProcs() int { return runtime.GOMAXPROCS(0) }
