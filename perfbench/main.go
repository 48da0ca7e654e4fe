// Command phastbench is the repository benchmark: it restores a
// europe-m engine snapshot built from the source under test, drives one
// workload through the public serving API, checks every answer it
// samples, and prints the metrics named in BENCHMARK.json. See
// README.md for the workloads, the metrics and the traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"phast"
)

type config struct {
	root, work string
	wl         workload
	seed       int64
	seconds    float64
	trace      bool
	preset     string
}

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares (a self-test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "phastbench: "+format+"\n", args...)
}

func main() {
	if child, err := runChild(os.Args[1:], os.Stdout); child {
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	if err := runBench(os.Args[1:], os.Stdout); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("phastbench", flag.ContinueOnError)
	var cfg config
	var name string
	var traceFlag int
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.work, "work", ".bench_build", "directory for snapshots and traces")
	fs.StringVar(&name, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&cfg.preset, "preset", string(phast.EuropeM), "road-network preset")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	found := false
	for _, w := range workloads {
		if w.name == name {
			cfg.wl, found = w, true
		}
	}
	if !found {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return cfg, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = traceFlag == 1
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		return cfg, err
	}
	if cfg.work, err = filepath.Abs(cfg.work); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func runBench(args []string, stdout io.Writer) error {
	cfg, err := parseArgs(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	var host hostProbe
	if err := spawn("hostprobe", &host); err != nil {
		return err
	}
	var man manifest
	if err := spawn("prepare", &man, cfg.root, cfg.work, cfg.preset); err != nil {
		return err
	}
	diag := map[string]any{"workload": cfg.wl.name, "seed": cfg.seed, "host": host, "prepare": man}

	if !cfg.trace {
		rep, _, err := measure(cfg, &man, nil, diag)
		if err != nil {
			return err
		}
		return emit(stdout, diag, rep)
	}

	// The traced run first measures the same workload untraced in a
	// child process, so tracing overhead is the difference between two
	// otherwise identical runs and the end-to-end metrics stay untraced.
	var plain report
	if err := spawn("untraced", &plain, append(append([]string(nil), args...), "--trace", "0")...); err != nil {
		return err
	}
	tr := newTracer()
	traced, layers, err := measure(cfg, &man, tr, diag)
	if err != nil {
		return err
	}
	overhead := map[string]float64{}
	for _, m := range endToEnd {
		overhead[m.name] = traced.Metrics[m.name].Value - plain.Metrics[m.name].Value
	}
	diag["untraced"] = plain.Metrics
	diag["tracing_overhead"] = overhead
	self := tr.selfTimes()
	diag["self_ms"] = self
	path := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.json", cfg.wl.name, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := tr.write(path); err != nil {
		return err
	}
	diag["spans_file"] = path

	fmt.Fprintf(stdout, "self time per layer (ms):\n")
	var names []string
	for l := range self {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		fmt.Fprintf(stdout, "  %-10s %12.3f\n", l, self[l])
	}
	fmt.Fprintf(stdout, "tracing overhead (traced - untraced):\n")
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "  %-12s %+.4f %s\n", m.name, overhead[m.name], m.unit)
	}
	traced.Correct = traced.Correct && plain.Correct
	traced.Attempted += plain.Attempted
	traced.Failed += plain.Failed
	traced.Metrics = layers
	return emit(stdout, diag, traced)
}

// emit prints the diagnostics and then the report as the last line.
func emit(stdout io.Writer, diag map[string]any, rep *report) error {
	d, err := json.Marshal(map[string]any{"diagnostics": diag})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", d)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// measure runs one pass of the workload: set-up, the timed phase and
// verification. With a tracer it also records spans, runs the isolated
// layer probes and returns the per-layer metrics too.
func measure(cfg config, man *manifest, tr *tracer, diag map[string]any) (*report, map[string]metricValue, error) {
	ctx := context.Background()
	r := &run{cfg: cfg, man: man, tr: tr, ctx: ctx}

	// A first restore, untimed and then dropped, warms the page cache
	// and gives set-up its reference answer. Set-up restores run one at
	// a time, each released before the next, so peak RSS counts the
	// mapping of the workload's own restore and not one per restore.
	warm, err := phast.LoadSnapshot(man.Snapshot, nil)
	if err != nil {
		return nil, nil, err
	}
	ref, err := newReference(warm, man, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	r.ref = &reference{source: ref.source, target: ref.target, tree: ref.tree}
	warm, ref = nil, nil
	releaseDropped()
	setup, err := r.measureSetup()
	if err != nil {
		return nil, nil, err
	}

	eng, err := phast.LoadSnapshot(man.Snapshot, nil)
	if err != nil {
		return nil, nil, err
	}
	if r.ref, err = newReference(eng, man, cfg.seed); err != nil {
		return nil, nil, err
	}
	r.st = &stack{eng: eng}
	if cfg.wl.routed {
		r.st.sh, err = eng.ServeSharded(shardedOptions())
	} else {
		r.st.srv, err = eng.Serve(nil)
	}
	if err != nil {
		return nil, nil, err
	}
	p, err := r.runPhase()
	r.st.close()
	if err != nil {
		return nil, nil, err
	}
	lat := summarize(p.lat)
	late := summarize(p.late)
	diag["latency"] = lat
	diag["generator_late"] = late
	diag["ops"] = p.ops
	diag["counters"] = phaseCounters(p, cfg.wl.routed)
	w50, w90 := windowed(p.lat, p.at, cfg.seconds)
	keep := calm(p.steal, runtime.NumCPU())
	p50, p90 := acrossSlices(w50, keep), acrossSlices(w90, keep)
	if math.IsNaN(p50) {
		return nil, nil, fmt.Errorf("no operation completed in the calm slices of the measured window")
	}
	diag["window_p50_ms"] = orNull(w50)
	diag["window_p90_ms"] = orNull(w90)
	diag["window_steal_ms"] = orNull(p.steal)
	diag["window_calm"] = keep
	if cfg.wl.batch {
		diag["trees_per_s"] = float64(batchSources) * float64(lat.Count) / (sum(p.lat) / 1000)
	}
	rep := &report{
		Attempted: r.att.Load(),
		Failed:    r.fail.Load(),
		Metrics: map[string]metricValue{
			"setup_s":     {setup, "s"},
			"peak_rss_mb": {peakRSSMiB(), "MiB"},
			"p50_ms":      {p50, "ms"},
			"p90_ms":      {p90, "ms"},
		},
	}
	var layers map[string]metricValue
	if tr != nil {
		if layers, err = r.perLayer(p, p50, late); err != nil {
			return nil, nil, err
		}
		rep.Failed = r.fail.Load()
		rep.Attempted = r.att.Load()
	}
	rep.Correct = rep.Failed == 0 && lat.Count > 0
	return rep, layers, nil
}

// orNull maps NaN, which JSON cannot hold, to null.
func orNull(xs []float64) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		if !math.IsNaN(x) {
			out[i] = x
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
