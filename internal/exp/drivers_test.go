package exp

import (
	"strconv"
	"strings"
	"testing"
)

// Driver-specific content checks beyond the suite smoke test.

func TestFig1ContentSumsToN(t *testing.T) {
	e := tinyEnv(t)
	tables, err := Fig1(e)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, row := range tables[0].Rows {
		v, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("non-numeric vertex count %q", row[1])
		}
		total += v
	}
	if total != e.G.NumVertices() {
		t.Fatalf("level sizes sum to %d, want %d", total, e.G.NumVertices())
	}
	last := tables[0].Rows[len(tables[0].Rows)-1]
	if last[2] != "100.0" {
		t.Fatalf("cumulative %% ends at %s, want 100.0", last[2])
	}
}

func TestTable4ListsAllMachines(t *testing.T) {
	e := tinyEnv(t)
	tables, err := Table4(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 5 {
		t.Fatalf("table4 has %d rows, want 5", len(tables[0].Rows))
	}
	names := map[string]bool{}
	for _, row := range tables[0].Rows {
		names[row[0]] = true
	}
	for _, want := range []string{"M2-1", "M2-4", "M4-12", "M1-4", "M2-6"} {
		if !names[want] {
			t.Fatalf("machine %s missing", want)
		}
	}
}

func TestTable1RowsCoverAlgorithms(t *testing.T) {
	e := tinyEnv(t)
	tables, err := Table1(e)
	if err != nil {
		t.Fatal(err)
	}
	var dijkstra, phast int
	for _, row := range tables[0].Rows {
		switch row[0] {
		case "Dijkstra":
			dijkstra++
		case "PHAST":
			phast++
		}
	}
	if dijkstra < 3 || phast < 3 {
		t.Fatalf("table1 rows: %d Dijkstra, %d PHAST", dijkstra, phast)
	}
	// Every timing cell parses as a float.
	for _, row := range tables[0].Rows {
		for _, cell := range row[2:] {
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				t.Fatalf("cell %q not numeric", cell)
			}
		}
	}
}

func TestScalingSpeedupColumnsWellFormed(t *testing.T) {
	e := tinyEnv(t)
	tables, err := Scaling(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if !strings.HasSuffix(row[6], "x") {
			t.Fatalf("speedup cell %q missing x suffix", row[6])
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[6], "x"), 64)
		if err != nil || v <= 1 {
			t.Fatalf("speedup %q not a ratio > 1 (PHAST must beat Dijkstra)", row[6])
		}
	}
}

func TestRPHASTSelectionGrowsWithTargets(t *testing.T) {
	e := tinyEnv(t)
	tables, err := RPHAST(e)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, row := range tables[0].Rows {
		sel, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("selection cell %q", row[1])
		}
		if sel < prev {
			t.Fatalf("selection shrank with more targets: %d after %d", sel, prev)
		}
		prev = sel
	}
}
