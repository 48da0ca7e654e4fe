// Command experiments regenerates every table and figure of the paper's
// evaluation (Section VIII) on synthetic instances and prints them in
// the paper's layout. See EXPERIMENTS.md for recorded paper-vs-measured
// comparisons.
//
// With -reports DIR, the bound, chbuild, customize and snapshot
// experiments write BENCH_3, 4, 6 and 8.json into DIR and apply their
// gates (see internal/exp/gate.go); the command exits 1 after printing
// every table if any gate failed.
//
// Usage:
//
//	experiments                         run everything on europe-s
//	experiments -run table1,table3     run selected experiments
//	experiments -preset europe-m -sources 10
//	experiments -list                  list experiment IDs
//	experiments -preset europe-m -run bound,chbuild,customize,snapshot -reports .
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"phast/internal/exp"
	"phast/internal/roadnet"
)

func main() {
	var (
		preset   = flag.String("preset", "europe-s", "instance preset")
		metric   = flag.String("metric", "time", "time or distance")
		sources  = flag.Int("sources", 5, "tree sources per measurement cell")
		gpuTrees = flag.Int("gpu-trees", 2, "simulated GPU trees per cell (simulation is slow)")
		seed     = flag.Int64("seed", 42, "source sampling seed")
		run      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
		svgDir   = flag.String("svg", "", "directory for SVG figures (fig1, scaling)")
		mdOut    = flag.String("markdown", "", "also write the tables as a markdown report to this file")
		reports  = flag.String("reports", "", "directory for the gated experiments' BENCH_*.json reports; enables their gates")
	)
	flag.Parse()
	if *list {
		for _, r := range exp.Suite() {
			fmt.Printf("%-11s %s\n", r.ID, r.Desc)
		}
		return
	}
	m := roadnet.TravelTime
	if *metric == "distance" {
		m = roadnet.TravelDistance
	} else if *metric != "time" {
		fmt.Fprintf(os.Stderr, "experiments: unknown metric %q\n", *metric)
		os.Exit(1)
	}
	cfg := exp.Config{
		Preset:   roadnet.Preset(*preset),
		Metric:   m,
		Sources:  *sources,
		GPUTrees: *gpuTrees,
		Seed:     *seed,
		SVGDir:   *svgDir,
		Reports:  *reports,
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	selected := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			selected[strings.TrimSpace(id)] = true
		}
	}

	start := time.Now()
	env, err := exp.NewEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	var md strings.Builder
	if *mdOut != "" {
		fmt.Fprintf(&md, "# PHAST experiment report\n\ninstance: %s (%s), sources=%d, seed=%d\n\n",
			*preset, *metric, *sources, *seed)
	}
	ran := 0
	for _, r := range exp.Suite() {
		if len(selected) > 0 && !selected[r.ID] {
			continue
		}
		ran++
		t0 := time.Now()
		tables, err := r.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		for _, tbl := range tables {
			fmt.Println(tbl.String())
			if *mdOut != "" {
				md.WriteString(tbl.Markdown())
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  [exp] %s finished in %v\n", r.ID, time.Since(t0).Round(time.Millisecond))
		}
	}
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  [exp] markdown report written to %s\n", *mdOut)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matched -run=%s (use -list)\n", *run)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "  [exp] suite finished in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if env.GateErr != nil {
		fmt.Fprintln(os.Stderr, "experiments: gate failed:", env.GateErr)
		os.Exit(1)
	}
}
