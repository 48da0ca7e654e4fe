package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The gate verdicts as functions of (report, baseline), without timing
// anything.

func TestReadSweepBaseline(t *testing.T) {
	// The committed baseline applies to its own instance.
	base, err := readSweepBaseline("../../BENCH_3.json", "europe-m/dfs")
	if err != nil || base == nil || base.RatioTree <= 0 || base.RatioMultiPooled <= 0 {
		t.Fatalf("committed BENCH_3.json: %+v, err=%v", base, err)
	}
	// A europe-s run must not gate against europe-m's ratios.
	if _, err := readSweepBaseline("../../BENCH_3.json", "europe-s/dfs"); err == nil || !strings.Contains(err.Error(), "europe-m/dfs") {
		t.Fatalf("europe-s/dfs run accepted the europe-m baseline: %v", err)
	}

	dir := t.TempDir()
	if base, err := readSweepBaseline(filepath.Join(dir, "missing.json"), "europe-m/dfs"); base != nil || err != nil {
		t.Fatalf("missing report: %+v, err=%v; want no baseline and no error", base, err)
	}
	for name, body := range map[string]string{
		"no baseline":        `{"instance":"europe-m/dfs"}`,
		"no pooled baseline": `{"instance":"europe-m/dfs","baseline":{"ratio_tree":4.1,"ratio_multi_k16":1.6}}`,
		"malformed":          `{"instance":`,
	} {
		path := filepath.Join(dir, "r.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSweepBaseline(path, "europe-m/dfs"); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

func TestSweepVerdict(t *testing.T) {
	run := sweepReport{benchHost: benchHost{GoVersion: "go1.24.0"}, RatioTree: 4, RatioMulti: 2, RatioTreePooled: 5, RatioMultiPooled: 3}
	rep := run
	if err := sweepVerdict(&rep, nil); err != nil {
		t.Fatalf("no baseline: %v", err)
	}
	if want := (sweepBaseline{"go1.24.0", 4, 2, 5, 3}); rep.Baseline != want {
		t.Fatalf("no baseline: recorded %+v, want %+v", rep.Baseline, want)
	}

	base := sweepBaseline{GoVersion: "go1.23.0", RatioTree: 4, RatioMulti: 2, RatioTreePooled: 5, RatioMultiPooled: 3}
	rows := []struct {
		name      string
		ratio     func(*sweepReport) *float64
		base, tol float64
	}{
		{"single-tree", func(r *sweepReport) *float64 { return &r.RatioTree }, 4, 1.15},
		{"k=16", func(r *sweepReport) *float64 { return &r.RatioMulti }, 2, 1.15},
		{"pooled single-tree", func(r *sweepReport) *float64 { return &r.RatioTreePooled }, 5, 1.10},
		{"pooled k=16", func(r *sweepReport) *float64 { return &r.RatioMultiPooled }, 3, 1.10},
	}
	for _, row := range rows {
		for _, c := range []struct {
			scale float64
			fail  bool
		}{{0.999, false}, {1.001, true}} {
			rep := run
			*row.ratio(&rep) = row.base * row.tol * c.scale
			err := sweepVerdict(&rep, &base)
			if (err != nil) != c.fail {
				t.Errorf("%s at %.3f × tolerance: err=%v, want fail=%v", row.name, c.scale, err, c.fail)
			}
			if rep.Baseline != base {
				t.Errorf("%s: baseline not carried forward: %+v", row.name, rep.Baseline)
			}
		}
	}
}

func TestCHBuildVerdict(t *testing.T) {
	rep := func(seqMs, parMs float64, seqShortcuts, parShortcuts int) chbuildReport {
		return chbuildReport{Results: []chbuildResult{
			{Workers: 1, BuildMs: seqMs, Shortcuts: seqShortcuts},
			{Workers: 2, BuildMs: parMs, Shortcuts: parShortcuts},
		}}
	}
	cases := []struct {
		name string
		rep  chbuildReport
		fail bool
	}{
		{"faster and equal", rep(1000, 600, 500, 500), false},
		{"just under tolerance", rep(1000, 1149, 500, 500), false},
		{"just over tolerance", rep(1000, 1151, 500, 500), true},
		{"unequal shortcuts", rep(1000, 600, 500, 501), true},
		{"single CPU", chbuildReport{Results: []chbuildResult{{Workers: 1, BuildMs: 1000, Shortcuts: 500}}}, false},
	}
	for _, c := range cases {
		if err := chbuildVerdict(c.rep); (err != nil) != c.fail {
			t.Errorf("%s: err=%v, want fail=%v", c.name, err, c.fail)
		}
	}
}

func TestCustomizeVerdict(t *testing.T) {
	for _, c := range []struct {
		ratio float64
		fail  bool
	}{{0.007, false}, {0.199, false}, {0.201, true}} {
		if err := customizeVerdict(customizeReport{RatioCustomizeVsBuild: c.ratio}); (err != nil) != c.fail {
			t.Errorf("ratio %.3f: err=%v, want fail=%v", c.ratio, err, c.fail)
		}
	}
}

func TestSnapshotVerdict(t *testing.T) {
	for _, c := range []struct {
		speedup, shard float64
		fail           bool
	}{
		{685, 0.26, false},
		{50.1, 1.09, false},
		{49.9, 0.26, true},
		{685, 1.11, true},
	} {
		err := snapshotVerdict(snapshotReport{SpeedupColdStart: c.speedup, RatioShardVsMono: c.shard})
		if (err != nil) != c.fail {
			t.Errorf("speedup %.1f, shard ratio %.2f: err=%v, want fail=%v", c.speedup, c.shard, err, c.fail)
		}
	}
}
