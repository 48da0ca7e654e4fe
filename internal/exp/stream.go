package exp

import (
	"fmt"
	"time"

	"phast/internal/core"
	"phast/internal/layout"
)

// Stream compares the compressed sweep stream (graph.PackedZ:
// delta-encoded arc heads, per-block narrow weights) against the
// uncompressed packed layout it derives from. The sweep is
// bandwidth-bound, so the interesting trade is bytes streamed per tree
// against the decode instructions spent recovering each arc: the
// compressed rows should read roughly half the bytes at nearly the
// packed kernel's speed. Modeled GB/s divides the stream footprint by
// the measured time — it drops for the compressed rows even at equal
// time, because the same sweep reads fewer bytes.
func Stream(e *Env) ([]*Table, error) {
	t := &Table{
		ID:    "stream",
		Title: fmt.Sprintf("compressed vs packed sweep stream on %s", e.Cfg.Preset),
		Headers: []string{"stream", "tree [ms]", "multi k=16 [ms/tree]",
			"stream bytes", "B/vertex", "ratio", "modeled GB/s"},
	}
	k := 16
	multiSources := e.randSources(k)
	n := e.G.NumVertices()

	// The delta encoding is designed for a locality-preserving vertex
	// layout (small position deltas), so measure on the DFS layout the
	// pipeline and the benchsmoke gate use — the input layout would
	// charge the compressed rows for wide deltas no deployment pays.
	perm := layout.DFS(e.G, 0)
	h, err := e.H.Permute(perm)
	if err != nil {
		return nil, err
	}
	for i, s := range multiSources {
		multiSources[i] = perm[s]
	}

	type row struct {
		name       string
		compressed bool
	}
	engines := make(map[bool]*core.Engine, 2)
	for _, r := range []row{{"packed", false}, {"compressed", true}} {
		eng, err := core.NewEngine(h, core.Options{
			Mode: core.SweepReordered, Workers: 1, CompressedSweep: r.compressed,
		})
		if err != nil {
			return nil, err
		}
		engines[r.compressed] = eng
		eng.Tree(perm[e.Sources[0]]) // warm the buffers outside the timer
		tree := e.perTree(func(s int32) { eng.Tree(perm[s]) })
		multi := e.perTree(func(s int32) {
			multiSources[0] = perm[s]
			eng.MultiTree(multiSources, false)
		}) / time.Duration(k)
		bytes := eng.StreamBytes()
		gbps := float64(bytes) / tree.Seconds() / 1e9
		t.AddRow(
			r.name,
			fmt.Sprintf("%.2f", float64(tree.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(multi.Microseconds())/1000),
			fmt.Sprintf("%d", bytes),
			fmt.Sprintf("%.1f", float64(bytes)/float64(n)),
			fmt.Sprintf("%.3f", eng.CompressionRatio()),
			fmt.Sprintf("%.2f", gbps),
		)
		e.logf("stream %s: %v/tree, %v/tree at k=%d, %d stream bytes",
			r.name, tree, multi, k, bytes)
	}
	t.AddNote("both rows run the same upward search; only the sweep's arc stream differs")
	t.AddNote("ratio = compressed bytes / packed bytes for the identical downward graph")
	t.AddNote("CI gates the compressed-vs-packed ratios via cmd/benchsmoke -mode stream (BENCH_7.json)")

	// The k-sweep: per-tree time against batch width, packed and
	// compressed (the Table II shape of the paper's multi-tree
	// amortization). Larger k amortizes the graph stream over more
	// trees, so per-tree time falls for both layouts; the last column
	// tracks how close the compressed stream's decode and staging stay
	// to the packed stream's direct (head, weight) words as the k·n
	// label traffic comes to dominate; both run one register relax.
	ks := &Table{
		ID:    "stream-ksweep",
		Title: fmt.Sprintf("multi-tree per-tree time vs batch width on %s", e.Cfg.Preset),
		Headers: []string{"k", "packed [ms/tree]", "compressed [ms/tree]",
			"compressed/packed"},
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		srcs := e.randSources(k)
		for i, s := range srcs {
			srcs[i] = perm[s]
		}
		times := make(map[bool]time.Duration, 2)
		for _, compressed := range []bool{false, true} {
			eng := engines[compressed]
			times[compressed] = e.perTree(func(s int32) {
				srcs[0] = perm[s]
				eng.MultiTree(srcs, false)
			}) / time.Duration(k)
		}
		ks.AddRow(
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.2f", float64(times[false].Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(times[true].Microseconds())/1000),
			fmt.Sprintf("%.3f", times[true].Seconds()/times[false].Seconds()),
		)
		e.logf("stream k=%d: packed %v/tree, compressed %v/tree", k, times[false], times[true])
	}
	ks.AddNote("per-tree time = batch sweep time / k; the graph stream amortizes as k grows")
	ks.AddNote("both streams share the register-resident vertex-major relax; k=1 runs the single-tree kernels")
	return []*Table{t, ks}, nil
}
