package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phast/internal/machine"
	"phast/internal/roadnet"
)

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(Config{
		Preset:   roadnet.PresetEuropeXS,
		Sources:  2,
		GPUTrees: 1,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSuiteRunsEndToEnd runs every driver with a report directory, so
// the gated drivers also write their BENCH reports; their verdicts at
// europe-xs are timing noise and are not asserted. The lowerbound and
// sched subtests check the rows of bound's table that stand in for the
// lower-bound and scheduler experiments bound replaced.
func TestSuiteRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	e := tinyEnv(t)
	e.Cfg.Reports = t.TempDir()
	reports := map[string]struct {
		name string
		rep  any
	}{
		"bound":     {"BENCH_3.json", &sweepReport{}},
		"chbuild":   {"BENCH_4.json", &chbuildReport{}},
		"customize": {"BENCH_6.json", &customizeReport{}},
		"snapshot":  {"BENCH_8.json", &snapshotReport{}},
	}
	var bound *Table
	for _, r := range Suite() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tables, err := r.Run(e)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", r.ID)
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Fatalf("%s: table %s has no rows", r.ID, tbl.ID)
				}
				out := tbl.String()
				if !strings.Contains(out, tbl.Title) {
					t.Fatalf("%s: rendering lost the title", r.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Headers) {
						t.Fatalf("%s/%s: row %v has %d cells, want %d",
							r.ID, tbl.ID, row, len(row), len(tbl.Headers))
					}
				}
			}
			if r.ID == "bound" {
				bound = tables[0]
			}
			report, gated := reports[r.ID]
			if !gated {
				return
			}
			buf, err := os.ReadFile(filepath.Join(e.Cfg.Reports, report.name))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(buf, report.rep); err != nil {
				t.Fatalf("%s: %v", report.name, err)
			}
			if b, ok := report.rep.(*sweepReport); ok && (b.Instance != "europe-xs/dfs" || b.Baseline.RatioTree != b.RatioTree) {
				t.Fatalf("%s: instance %q, baseline %+v: want this run recorded as the baseline", report.name, b.Instance, b.Baseline)
			}
		})
	}
	t.Run("lowerbound", func(t *testing.T) {
		if bound == nil {
			t.Fatal("bound produced no table")
		}
		checkLowerBoundRows(t, bound)
	})
	t.Run("sched", func(t *testing.T) {
		if bound == nil {
			t.Fatal("bound produced no table")
		}
		checkPooledRows(t, bound)
	})
}

// checkLowerBoundRows asserts that bound's table leads with the Sec.
// VIII-B reference measurements: the sequential stream at 1.00x, then
// the vertex-loop traversal and the parallel stream, each with a
// positive time, followed by the PHAST rows.
func checkLowerBoundRows(t *testing.T, tbl *Table) {
	t.Helper()
	want := []string{"sequential stream (lower bound)", "vertex-loop traversal", "parallel stream", "PHAST tree, sequential"}
	if len(tbl.Rows) < len(want) {
		t.Fatalf("bound has %d rows, want at least %d", len(tbl.Rows), len(want))
	}
	for i, name := range want {
		row := tbl.Rows[i]
		if !strings.HasPrefix(row[0], name) {
			t.Errorf("bound row %d is %q, want %q", i, row[0], name)
		}
		if row[1] == "0" || strings.HasPrefix(row[1], "-") {
			t.Errorf("bound row %q: time/tree %q", row[0], row[1])
		}
	}
	if got := tbl.Rows[0][4]; got != "1.00x" {
		t.Errorf("sequential stream row: vs stream %q, want 1.00x", got)
	}
}

// checkPooledRows asserts that bound's pooled rows report chunks per
// sweep and carry the fallback mark exactly when the pool ran one chunk.
// europe-xs's packed stream (about 120 KB) fits one chunk of the default
// byte budget, half the L2, wherever that budget is at least 128 KiB, so
// there both pooled rows must be marked.
func checkPooledRows(t *testing.T, tbl *Table) {
	t.Helper()
	budget, err := machine.SweepChunkBytes()
	oneChunk := err == nil && budget >= 128<<10
	pooled := 0
	for _, row := range tbl.Rows {
		if !strings.Contains(row[0], "pooled") {
			continue
		}
		pooled++
		chunks := row[len(row)-3]
		marked := strings.Contains(row[0], "one-chunk sequential fallback")
		if chunks == "-" || marked != (chunks == "1") {
			t.Errorf("pooled row %q: chunks/sweep %q", row[0], chunks)
		}
		if oneChunk && !marked {
			t.Errorf("pooled row %q not marked as a one-chunk fallback at a %d-byte chunk budget", row[0], budget)
		}
	}
	if pooled != 2 {
		t.Errorf("bound has %d pooled rows, want 2", pooled)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Preset == "" || c.Sources == 0 || c.GPUTrees == 0 || c.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Headers: []string{"a", "bbbb"},
	}
	tbl.AddRow("x", "1")
	tbl.AddRow("longer", "2")
	tbl.AddNote("n=%d", 5)
	out := tbl.String()
	for _, want := range []string{"demo", "longer", "bbbb", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := &Table{
		ID:      "t1",
		Title:   "demo",
		Headers: []string{"a", "b"},
	}
	tbl.AddRow("x|y", "1")
	tbl.AddNote("careful | pipes")
	out := tbl.Markdown()
	for _, want := range []string{"### T1 — demo", "| a | b |", "|---|---|", `x\|y`, `*careful \| pipes*`} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.50" {
		t.Fatalf("ms=%s", ms(1500*time.Microsecond))
	}
	if ms(250*time.Millisecond) != "250" {
		t.Fatalf("ms=%s", ms(250*time.Millisecond))
	}
	if ms(50*time.Microsecond) != "0.050" {
		t.Fatalf("ms=%s", ms(50*time.Microsecond))
	}
	if dhm(26*time.Hour+5*time.Minute) != "1:02:05" {
		t.Fatalf("dhm=%s", dhm(26*time.Hour+5*time.Minute))
	}
	if mb(1<<20) != "1.0" {
		t.Fatal("mb formatting broken")
	}
	if itoa(-42) != "-42" {
		t.Fatal("itoa broken")
	}
	if totalTime(50*time.Hour) != "2:02:00" {
		t.Fatalf("totalTime day form: %s", totalTime(50*time.Hour))
	}
	if totalTime(90*time.Second) != "1m30s" {
		t.Fatalf("totalTime minute form: %s", totalTime(90*time.Second))
	}
	if totalTime(1500*time.Millisecond) != "1.5s" {
		t.Fatalf("totalTime second form: %s", totalTime(1500*time.Millisecond))
	}
	if totalTime(3*time.Millisecond) != "3ms" {
		t.Fatalf("totalTime ms form: %s", totalTime(3*time.Millisecond))
	}
	if f2(1.234) != "1.23" || f1(1.26) != "1.3" {
		t.Fatal("float formatting broken")
	}
}

func TestEnvSourcesInRange(t *testing.T) {
	e := tinyEnv(t)
	n := e.G.NumVertices()
	for _, s := range e.Sources {
		if s < 0 || int(s) >= n {
			t.Fatalf("source %d out of range", s)
		}
	}
	more := e.randSources(7)
	if len(more) != 7 {
		t.Fatal("randSources length")
	}
	for _, s := range more {
		if s < 0 || int(s) >= n {
			t.Fatalf("source %d out of range", s)
		}
	}
}
