package exp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"phast"
)

// snapshotReport is the BENCH_8.json schema: the zero-copy cold-start
// gate and the sharded-serving latency gate.
type snapshotReport struct {
	benchHost
	benchFixture
	// SnapshotBytes is the on-disk size of the saved engine.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// BuildMs is one fresh preprocess (CH contraction + engine), the
	// cold start a process pays without a snapshot. SaveMs is the
	// one-time serialization cost. LoadMs is the mmap restore, ReadMs
	// the heap-fallback restore (both min over rounds).
	BuildMs float64 `json:"build_ms"`
	SaveMs  float64 `json:"save_ms"`
	LoadMs  float64 `json:"load_ms"`
	ReadMs  float64 `json:"read_ms"`
	// SpeedupColdStart is BuildMs/LoadMs, the point of the snapshot
	// layer; the gate fails below snapshotMinSpeedup.
	SpeedupColdStart float64 `json:"speedup_cold_start"`
	// Shards is K of the sharded half. MonoTreeNs is the monolithic
	// engine's full single-tree sweep; ShardDistNs is a sharded routed
	// distance (upward search + one cell-restricted sweep, ~n/K work).
	// RatioShardVsMono is the latter over the former; the gate fails
	// above shardTolerance.
	Shards           int     `json:"shards"`
	MonoTreeNs       float64 `json:"mono_tree_ns"`
	ShardDistNs      float64 `json:"shard_dist_ns"`
	RatioShardVsMono float64 `json:"ratio_shard_vs_mono"`
	// ShardTreeNs is the cross-shard scatter-gathered full tree and
	// SelectionSum the total selected vertices across cells (vs N for
	// one monolithic sweep), the redundancy a cut pays; recorded, not
	// gated (both are properties of the partition, not regressions).
	ShardTreeNs  float64 `json:"shard_tree_ns"`
	SelectionSum int     `json:"selection_sum"`
}

// snapshotRounds is how many restores of each kind are timed (min
// reported); restores are milliseconds, so a few rounds reject jitter.
const snapshotRounds = 3

// snapshotVerdict is the BENCH_8 gate: the mmap cold start beats the
// rebuild by snapshotMinSpeedup, and a sharded routed distance costs at
// most shardTolerance × a monolithic tree.
func snapshotVerdict(rep snapshotReport) error {
	if rep.SpeedupColdStart < snapshotMinSpeedup {
		return fmt.Errorf("mmap cold start is only %.1fx faster than rebuild (floor %d)", rep.SpeedupColdStart, snapshotMinSpeedup)
	}
	if rep.RatioShardVsMono > shardTolerance {
		return fmt.Errorf("sharded routed distance is %.3fx a monolithic tree (tolerance %.2f)", rep.RatioShardVsMono, shardTolerance)
	}
	return nil
}

// Snapshot measures the engine's cold-start alternatives through the
// public API and is the snapshot gate (BENCH_8.json): phast.Preprocess
// on the gate fixture (the rebuild), one save, then restores by mmap
// (LoadSnapshot, arrays alias the mapped pages) and by the heap reader
// (ReadSnapshot), each timed with one warm tree inside the timer so a
// restore that defers its page faults cannot cheat it. A sharded front
// over the mmap-restored engine then answers routed single-target
// distances, timed against one monolithic tree.
func Snapshot(e *Env) ([]*Table, error) {
	g, err := fixtureGraph(e.Cfg.Preset)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "exp-snapshot-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := dir + "/engine.snap"
	opt := &phast.Options{SweepWorkers: 1}

	start := time.Now()
	eng, err := phast.Preprocess(g, opt)
	if err != nil {
		return nil, err
	}
	buildMs := float64(time.Since(start).Microseconds()) / 1000
	start = time.Now()
	if err := eng.SaveSnapshotFile(path); err != nil {
		return nil, err
	}
	saveMs := float64(time.Since(start).Microseconds()) / 1000
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}

	loadMs, readMs := math.Inf(1), math.Inf(1)
	var loaded *phast.Engine
	for r := 0; r < snapshotRounds; r++ {
		start := time.Now()
		le, err := phast.LoadSnapshot(path, opt)
		if err != nil {
			return nil, err
		}
		le.Tree(0)
		loadMs = min(loadMs, float64(time.Since(start).Microseconds())/1000)
		loaded = le

		start = time.Now()
		re, err := phast.ReadSnapshot(bytes.NewReader(raw), opt)
		if err != nil {
			return nil, err
		}
		re.Tree(0)
		readMs = min(readMs, float64(time.Since(start).Microseconds())/1000)
	}

	srv, err := loaded.ServeSharded(&phast.ShardedServeOptions{Shards: gateShards, Seed: 7})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(7))
	n := g.NumVertices()
	pairs := make([][2]int32, 64)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	bench := func(op func(p [2]int32) error) float64 {
		return float64(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := op(pairs[i%len(pairs)]); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp())
	}
	mono := bench(func(p [2]int32) error { loaded.Tree(p[0]); return nil })
	dist := bench(func(p [2]int32) error { _, err := srv.Distance(nil, p[0], p[1]); return err })
	tree := bench(func(p [2]int32) error {
		res, err := srv.Tree(nil, p[0])
		if err == nil {
			res.Release()
		}
		return err
	})
	selSum := 0
	for _, s := range srv.SelectionSizes() {
		selSum += s
	}

	rep := snapshotReport{
		benchHost:        thisHost(),
		benchFixture:     onFixture(e.Cfg.Preset, g),
		SnapshotBytes:    int64(len(raw)),
		BuildMs:          buildMs,
		SaveMs:           saveMs,
		LoadMs:           loadMs,
		ReadMs:           readMs,
		SpeedupColdStart: buildMs / loadMs,
		Shards:           gateShards,
		MonoTreeNs:       mono,
		ShardDistNs:      dist,
		RatioShardVsMono: dist / mono,
		ShardTreeNs:      tree,
		SelectionSum:     selSum,
	}

	cold := &Table{
		ID:      "snapshot",
		Title:   "engine cold start: rebuild vs snapshot restore on " + rep.Instance,
		Headers: []string{"path", "time [ms]", "bytes", "speedup vs rebuild"},
	}
	size := fmt.Sprint(rep.SnapshotBytes)
	cold.AddRow("phast.Preprocess (CH build + engine)", f2(buildMs), "-", "1x")
	cold.AddRow("save snapshot (once)", f2(saveMs), size, "-")
	cold.AddRow("LoadSnapshot (mmap)", f2(loadMs), size, fmt.Sprintf("%.0fx", rep.SpeedupColdStart))
	cold.AddRow("ReadSnapshot (heap)", f2(readMs), size, fmt.Sprintf("%.0fx", buildMs/readMs))
	cold.AddNote("timed restores (min of %d) include validation, engine assembly and one warm tree", snapshotRounds)
	cold.AddNote("mmap'd arrays alias PROT_READ pages shared by every process mapping the file")

	shards := &Table{
		ID:      "snapshot",
		Title:   fmt.Sprintf("sharded serving over the restored engine, K=%d", gateShards),
		Headers: []string{"query", "time [ms]", "vs monolithic tree"},
	}
	shards.AddRow("monolithic tree", ms(time.Duration(rep.MonoTreeNs)), "1.00x")
	shards.AddRow("sharded routed distance", ms(time.Duration(rep.ShardDistNs)), f2(rep.RatioShardVsMono)+"x")
	shards.AddRow("sharded cross-shard tree", ms(time.Duration(rep.ShardTreeNs)), f2(rep.ShardTreeNs/rep.MonoTreeNs)+"x")
	shards.AddNote("Σ|selection| over the %d cells: %d vertices (n=%d)", gateShards, selSum, n)
	if err := e.gate(shards, "BENCH_8.json", &rep, snapshotVerdict(rep)); err != nil {
		return nil, err
	}
	return []*Table{cold, shards}, nil
}
