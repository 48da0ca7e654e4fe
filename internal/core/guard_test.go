package core

import (
	"math/rand"
	"testing"

	"phast/internal/graph"
)

// TestDistAfterMultiTreePanics pins the misuse guard: single-tree labels
// are stale after a multi-tree sweep and must not be readable silently.
func TestDistAfterMultiTreePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	g := gridGraph(rng, 5, 5, 10)
	e := newEngine(t, g, Options{})
	e.Tree(0)
	_ = e.Dist(3) // fine
	e.MultiTree([]int32{1, 2}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Dist after MultiTree did not panic")
		}
	}()
	_ = e.Dist(3)
}

// TestTreeAfterMultiTreeRecovers: a fresh single tree re-enables the
// single-tree readers.
func TestTreeAfterMultiTreeRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := gridGraph(rng, 6, 6, 10)
	e := newEngine(t, g, Options{})
	e.MultiTree([]int32{1, 2}, false)
	e.Tree(4)
	if e.Dist(4) != 0 {
		t.Fatal("single-tree read after recovery wrong")
	}
	e.MultiTree([]int32{3}, false)
	e.TreeParallel(4)
	if e.Dist(4) != 0 {
		t.Fatal("parallel tree did not clear the multi-tree guard")
	}
}

// lineGraph is the bidirectional path 0 - 1 - ... - n-1 with unit
// weights.
func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := int32(0); v+1 < int32(n); v++ {
		b.MustAddArc(v, v+1, 1)
		b.MustAddArc(v+1, v, 1)
	}
	return b.Build()
}

// mustPanic fails unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestParentReadersAfterMultiTreePanic pins the guard on the readers of
// the last single tree's parents: after a multi-tree sweep, whose
// upward searches overwrite the source, PathTo and ParentGPlus would
// otherwise follow the old tree's parent pointers to the multi-tree
// source, and GTreeParents would derive a tree from stale labels.
func TestParentReadersAfterMultiTreePanic(t *testing.T) {
	g := lineGraph(9)
	for _, sources := range [][]int32{{4}, {4, 6}} {
		e := newEngine(t, g, Options{})
		e.TreeWithParents(0)
		if got := e.PathTo(8); len(got) != 9 {
			t.Fatalf("PathTo(8) from 0 = %v, want the whole line", got)
		}
		e.MultiTree(sources, false)
		mustPanic(t, "PathTo after MultiTree", func() { e.PathTo(8) })
		mustPanic(t, "ParentGPlus after MultiTree", func() { e.ParentGPlus(8) })

		e.Tree(0)
		buf := make([]int32, g.NumVertices())
		e.GTreeParents(buf)
		e.MultiTree(sources, false)
		mustPanic(t, "GTreeParents after MultiTree", func() { e.GTreeParents(buf) })
	}
}
