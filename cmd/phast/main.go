// Command phast preprocesses a road network and answers shortest-path
// queries from the command line.
//
// Usage:
//
//	phast -preset europe-s -source 12345        one tree, print stats
//	phast -graph europe.gr -query 17:42         point-to-point distance
//	phast -preset usa-s -trees 100              time 100 random trees
//	phast -preset europe-s -info                instance + hierarchy info
//	phast -preset europe-m -save-ch europe.ch   cache preprocessing
//	phast -load-ch europe.ch -trees 1000        reuse it
//	phast -preset europe-s -replay q.txt        serve a query file through
//	                                            the batching tree server
//
// One of -graph, -preset or -load-ch selects the instance; -source,
// -query, -trees, -replay and -info select the work (combinable).
// A -replay file holds one source vertex per line ('#' starts a
// comment); -clients and -batch shape the concurrent server load.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"phast"
)

// config collects the CLI flags.
type config struct {
	graphPath string
	preset    string
	metric    string
	loadCH    string
	saveCH    string
	source    int
	query     string
	trees     int
	info      bool
	seed      int64
	parallel  bool
	replay    string
	clients   int
	batch     int
}

func main() {
	var c config
	flag.StringVar(&c.graphPath, "graph", "", "DIMACS .gr file to load")
	flag.StringVar(&c.preset, "preset", "", "synthetic instance preset (europe-xs..usa-l)")
	flag.StringVar(&c.metric, "metric", "time", "weight metric for -preset: time or distance")
	flag.StringVar(&c.loadCH, "load-ch", "", "load a cached hierarchy instead of preprocessing")
	flag.StringVar(&c.saveCH, "save-ch", "", "save the hierarchy after preprocessing")
	flag.IntVar(&c.source, "source", -1, "compute one shortest-path tree from this vertex")
	flag.StringVar(&c.query, "query", "", "point-to-point query s:t")
	flag.IntVar(&c.trees, "trees", 0, "time this many random trees")
	flag.BoolVar(&c.info, "info", false, "print instance and hierarchy statistics")
	flag.Int64Var(&c.seed, "seed", 42, "random seed for -trees")
	flag.BoolVar(&c.parallel, "parallel", false, "use the intra-level parallel sweep")
	flag.StringVar(&c.replay, "replay", "", "replay a query file (one source per line) through the tree server")
	flag.IntVar(&c.clients, "clients", 8, "concurrent client goroutines for -replay")
	flag.IntVar(&c.batch, "batch", 16, "max sources per server sweep for -replay")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "phast:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	eng, err := buildEngine(c)
	if err != nil {
		return err
	}
	g := eng.Graph()
	if c.saveCH != "" {
		f, err := os.Create(c.saveCH)
		if err != nil {
			return err
		}
		if err := eng.SaveHierarchy(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved hierarchy to %s\n", c.saveCH)
	}
	if c.info {
		sizes := eng.LevelSizes()
		fmt.Printf("level 0 holds %d of %d vertices (%.1f%%)\n",
			sizes[0], g.NumVertices(), 100*float64(sizes[0])/float64(g.NumVertices()))
	}
	if c.source >= 0 {
		if c.source >= g.NumVertices() {
			return fmt.Errorf("source %d out of range [0,%d)", c.source, g.NumVertices())
		}
		start := time.Now()
		if c.parallel {
			eng.TreeParallel(int32(c.source))
		} else {
			eng.Tree(int32(c.source))
		}
		elapsed := time.Since(start)
		reached, far, farV := 0, uint32(0), int32(-1)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if d := eng.Dist(v); d != phast.Inf {
				reached++
				if d > far {
					far, farV = d, v
				}
			}
		}
		fmt.Printf("tree from %d: %v, %d reached, eccentricity %d (at vertex %d)\n",
			c.source, elapsed, reached, far, farV)
	}
	if c.query != "" {
		s, t, err := parseQuery(c.query)
		if err != nil {
			return err
		}
		if int(s) >= g.NumVertices() || int(t) >= g.NumVertices() {
			return fmt.Errorf("query endpoints out of range")
		}
		start := time.Now()
		d := eng.Query(s, t)
		elapsed := time.Since(start)
		if d == phast.Inf {
			fmt.Printf("query %d->%d: unreachable (%v)\n", s, t, elapsed)
		} else {
			path := eng.QueryPath(s, t)
			fmt.Printf("query %d->%d: distance %d, %d path vertices (%v)\n",
				s, t, d, len(path), elapsed)
		}
	}
	if c.trees > 0 {
		rng := rand.New(rand.NewSource(c.seed))
		start := time.Now()
		for i := 0; i < c.trees; i++ {
			s := int32(rng.Intn(g.NumVertices()))
			if c.parallel {
				eng.TreeParallel(s)
			} else {
				eng.Tree(s)
			}
		}
		total := time.Since(start)
		fmt.Printf("%d trees: %v total, %v per tree\n",
			c.trees, total.Round(time.Millisecond), total/time.Duration(c.trees))
	}
	if c.replay != "" {
		if err := replayQueries(eng, c); err != nil {
			return err
		}
	}
	return nil
}

// replayQueries fires every source in the replay file at a TreeServer
// from c.clients concurrent goroutines — the CLI face of the batching
// serving layer — and reports throughput plus server statistics.
func replayQueries(eng *phast.Engine, c config) error {
	sources, err := readQueryFile(c.replay, eng.NumVertices())
	if err != nil {
		return err
	}
	if len(sources) == 0 {
		return fmt.Errorf("replay file %s holds no queries", c.replay)
	}
	if c.clients < 1 {
		return fmt.Errorf("-clients must be positive, got %d", c.clients)
	}
	srv, err := eng.Serve(&phast.ServeOptions{MaxBatch: c.batch})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	start := time.Now()
	for w := 0; w < c.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sources); i += c.clients {
				res, err := srv.Query(nil, sources[i])
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				res.Release()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	srv.Close()
	if firstErr != nil {
		return firstErr
	}
	st := srv.Stats()
	fmt.Printf("replayed %d queries with %d clients: %v total, %.0f queries/s\n",
		len(sources), c.clients, elapsed.Round(time.Millisecond),
		float64(st.Queries)/elapsed.Seconds())
	fmt.Printf("server: %d batches, mean occupancy %.2f/%d, queue high water %d, sweep %.2f ms, copy-out %.2f ms\n",
		st.Batches, st.MeanBatchOccupancy, c.batch, st.QueueHighWater, st.SweepSeconds*1e3, st.CopySeconds*1e3)
	return nil
}

// readQueryFile parses a replay file: one source vertex per line, blank
// lines and '#' comments ignored. Every source must lie in [0,n).
func readQueryFile(path string, n int) ([]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sources []int32
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		v, err := strconv.Atoi(text)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: malformed source %q", path, line, text)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("%s:%d: source %d out of range [0,%d)", path, line, v, n)
		}
		sources = append(sources, int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sources, nil
}

func buildEngine(c config) (*phast.Engine, error) {
	if c.loadCH != "" {
		if c.graphPath != "" || c.preset != "" {
			return nil, fmt.Errorf("-load-ch replaces -graph/-preset")
		}
		f, err := os.Open(c.loadCH)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		start := time.Now()
		eng, err := phast.LoadEngine(f, nil)
		if err != nil {
			return nil, err
		}
		fmt.Printf("loaded hierarchy: %d vertices, %d shortcuts, %d levels (%v)\n",
			eng.NumVertices(), eng.NumShortcuts(), eng.NumLevels(),
			time.Since(start).Round(time.Millisecond))
		return eng, nil
	}
	g, err := loadGraph(c.graphPath, c.preset, c.metric)
	if err != nil {
		return nil, err
	}
	fmt.Printf("instance: %d vertices, %d arcs\n", g.NumVertices(), g.NumArcs())
	start := time.Now()
	eng, err := phast.Preprocess(g, nil)
	if err != nil {
		return nil, err
	}
	fmt.Printf("preprocessing: %v (%d shortcuts, %d levels)\n",
		time.Since(start).Round(time.Millisecond), eng.NumShortcuts(), eng.NumLevels())
	return eng, nil
}

func loadGraph(graphPath, preset, metric string) (*phast.Graph, error) {
	switch {
	case graphPath != "" && preset != "":
		return nil, fmt.Errorf("-graph and -preset are mutually exclusive")
	case graphPath != "":
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return phast.ReadDIMACS(f)
	case preset != "":
		m := phast.TravelTime
		switch metric {
		case "time":
		case "distance":
			m = phast.TravelDistance
		default:
			return nil, fmt.Errorf("unknown metric %q (want time or distance)", metric)
		}
		net, err := phast.GenerateRoadNetworkPreset(phast.RoadPreset(preset), m)
		if err != nil {
			return nil, err
		}
		return net.Graph, nil
	default:
		return nil, fmt.Errorf("one of -graph, -preset or -load-ch is required")
	}
}

func parseQuery(q string) (int32, int32, error) {
	parts := strings.Split(q, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("malformed -query %q, want s:t", q)
	}
	s, err1 := strconv.Atoi(parts[0])
	t, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || s < 0 || t < 0 {
		return 0, 0, fmt.Errorf("malformed -query %q", q)
	}
	return int32(s), int32(t), nil
}
