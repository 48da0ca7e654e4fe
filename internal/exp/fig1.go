package exp

import (
	"fmt"
	"os"
	"path/filepath"
)

// Fig1 reproduces Figure 1: the number of vertices per CH level. The
// paper's instance has 140 levels with half of all vertices on level 0,
// all but ~10^4 vertices in the lowest 20 levels, and all but ~10^3 in
// the lowest 66; the synthetic instance must show the same geometric
// decay.
func Fig1(e *Env) ([]*Table, error) {
	sizes := e.Hierarchy().LevelSizes()
	n := e.G.NumVertices()
	t := &Table{
		ID:      "fig1",
		Title:   "vertices per level (CH hierarchy)",
		Headers: []string{"level", "vertices", "cumulative %"},
	}
	cum := 0
	for l, s := range sizes {
		cum += s
		t.AddRow(fmt.Sprintf("%d", l), fmt.Sprintf("%d", s),
			f1(100*float64(cum)/float64(n)))
	}
	frac0 := float64(sizes[0]) / float64(n)
	t.AddNote("%d levels; level 0 holds %.0f%% of all vertices (paper: ~140 levels, ~50%%)",
		len(sizes), 100*frac0)
	low20 := 0
	for l := 0; l < len(sizes) && l < 20; l++ {
		low20 += sizes[l]
	}
	t.AddNote("lowest 20 levels hold all but %d of %d vertices (paper: all but ~10^4 of 18M)",
		n-low20, n)
	if e.Cfg.SVGDir != "" {
		path := filepath.Join(e.Cfg.SVGDir, "fig1.svg")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := WriteLevelHistogramSVG(f, sizes,
			fmt.Sprintf("Vertices per level (%s, n=%d)", e.Cfg.Preset, n)); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		t.AddNote("figure written to %s", path)
	}
	return []*Table{t}, nil
}
