package core

import (
	"math/rand"
	"testing"

	"phast/internal/pq"
	"phast/internal/sssp"
)

// These tests pin the aliasing contract of the raw accessors: slices
// returned by RawDistances/RawMultiDistances are the engine's working
// buffers and the next sweep silently overwrites them, while
// CopyDistances/CopyLaneDistances/CopyLanes snapshots stay valid
// forever. The serving layer (internal/server) depends on the copy
// forms.

// TestRawDistancesInvalidatedByNextSweep demonstrates the hazard the
// copy accessors exist to avoid: a raw slice held across a sweep is
// reused, while a CopyDistances snapshot taken at the same moment is
// not. If the engine ever stops reusing the buffer (making raw reads
// safe), or the copy starts aliasing, this test fails.
func TestRawDistancesInvalidatedByNextSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	g := gridGraph(rng, 9, 9, 20)
	n := g.NumVertices()
	e := newEngine(t, g, Options{})
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)

	e.Tree(5)
	raw := e.RawDistances()
	snapshot := make([]uint32, n)
	e.CopyDistances(snapshot)
	rawThen := make([]uint32, n)
	copy(rawThen, raw)

	// A second tree from the far corner reuses the same buffer.
	e.Tree(int32(n - 1))

	changed := false
	for i := range raw { //phastlint:ignore rawalias deliberate stale read: this test pins the aliasing behavior
		if raw[i] != rawThen[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("RawDistances survived a second sweep; the aliasing contract (and these tests) are stale")
	}
	d.Run(5)
	for v := 0; v < n; v++ {
		if snapshot[v] != d.Dist(int32(v)) {
			t.Fatalf("CopyDistances snapshot corrupted by later sweep at %d: %d, want %d",
				v, snapshot[v], d.Dist(int32(v)))
		}
	}
}

func TestCopyLaneDistancesMatchesMultiDist(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gridGraph(rng, 8, 7, 15)
	n := g.NumVertices()
	e := newEngine(t, g, Options{})
	sources := []int32{3, 17, 42, 9}
	e.MultiTree(sources, false)
	buf := make([]uint32, n)
	for i := range sources {
		e.CopyLaneDistances(i, buf)
		for v := int32(0); v < int32(n); v++ {
			if buf[v] != e.MultiDist(i, v) {
				t.Fatalf("lane %d vertex %d: copy %d != MultiDist %d", i, v, buf[v], e.MultiDist(i, v))
			}
		}
	}
}

// TestCopyLaneDistancesSurvivesNextSweep is the multi-tree
// reuse-after-sweep regression: lane snapshots must stay correct after
// the engine runs more sweeps — including sweeps with a different k,
// which relayout the raw buffer entirely.
func TestCopyLaneDistancesSurvivesNextSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := gridGraph(rng, 10, 9, 25)
	n := g.NumVertices()
	e := newEngine(t, g, Options{})
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)

	// Warm the k-label buffer with a larger batch first so the later
	// k=3 sweeps reuse (and overwrite) one backing array instead of
	// reallocating it — the exact situation that corrupts held raw
	// slices in a long-lived engine.
	e.MultiTree([]int32{1, 2, 3, 4, 5}, false)

	sources := []int32{4, 31, 60}
	e.MultiTree(sources, false)
	snapshots := make([][]uint32, len(sources))
	for i := range sources {
		snapshots[i] = make([]uint32, n)
		e.CopyLaneDistances(i, snapshots[i])
	}
	raw := e.RawMultiDistances()
	rawThen := make([]uint32, len(raw))
	copy(rawThen, raw)

	// Overwrite with more sweeps of the same and smaller k, plus a
	// single tree for good measure.
	e.MultiTree([]int32{77, 8, 9}, false)
	e.Tree(0)
	e.MultiTree([]int32{12, 13}, false)

	changed := false
	for i := range rawThen {
		//phastlint:ignore rawalias deliberate stale read: this test pins the aliasing behavior
		if raw[i] != rawThen[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("RawMultiDistances survived later sweeps; aliasing contract is stale")
	}
	for i, src := range sources {
		d.Run(src)
		for v := 0; v < n; v++ {
			if snapshots[i][v] != d.Dist(int32(v)) {
				t.Fatalf("lane %d (src %d) snapshot corrupted at %d: %d, want %d",
					i, src, v, snapshots[i][v], d.Dist(int32(v)))
			}
		}
	}
}

func TestCopyLaneDistancesGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := gridGraph(rng, 5, 5, 10)
	n := g.NumVertices()
	e := newEngine(t, g, Options{})
	buf := make([]uint32, n)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	e.Tree(0)
	mustPanic("CopyLaneDistances after single Tree", func() { e.CopyLaneDistances(0, buf) })
	e.MultiTree([]int32{1, 2}, false)
	mustPanic("lane out of range", func() { e.CopyLaneDistances(2, buf) })
	mustPanic("negative lane", func() { e.CopyLaneDistances(-1, buf) })
	mustPanic("short buffer", func() { e.CopyLaneDistances(0, buf[:n-1]) })
	mustPanic("CopyDistances after MultiTree", func() { e.CopyDistances(buf) })
}

// TestCopyLanesMatchesCopyLaneDistancesAndDijkstra is the differential
// test of the lane-group copy-out: for k across every 4/2/1 group
// remainder and in every sweep mode (a permuting toEngine under
// SweepReordered, the identity under level and rank order), each
// buffer CopyLanes fills must equal CopyLaneDistances of its lane and
// Dijkstra from its source. The sparse random graph leaves vertices
// unreached, so Inf labels are copied too.
func TestCopyLanesMatchesCopyLaneDistancesAndDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := randomGraph(rng, 150, 330, 30)
	n := g.NumVertices()
	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	want := make([]uint32, n)
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEngine(t, g, Options{Mode: mode})
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 32} {
				sources := make([]int32, k)
				bufs := make([][]uint32, k)
				for i := range sources {
					sources[i] = int32(rng.Intn(n))
					bufs[i] = make([]uint32, n)
				}
				e.MultiTree(sources, false)
				e.CopyLanes(bufs)
				for i, src := range sources {
					e.CopyLaneDistances(i, want)
					d.Run(src)
					for v := range want {
						if bufs[i][v] != want[v] || bufs[i][v] != d.Dist(int32(v)) {
							t.Fatalf("k=%d lane %d (src %d) vertex %d: CopyLanes %d, CopyLaneDistances %d, Dijkstra %d",
								k, i, src, v, bufs[i][v], want[v], d.Dist(int32(v)))
						}
					}
				}
			}
		})
	}
}

// TestCopyLanesSurvivesNextSweep: buffers CopyLanes filled are private
// snapshots, untouched by later sweeps of the same or another k.
func TestCopyLanesSurvivesNextSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := gridGraph(rng, 10, 9, 25)
	n := g.NumVertices()
	e := newEngine(t, g, Options{})
	sources := []int32{4, 31, 60, 2, 77}
	bufs := make([][]uint32, len(sources))
	for i := range bufs {
		bufs[i] = make([]uint32, n)
	}
	e.MultiTree(sources, false)
	e.CopyLanes(bufs)
	then := make([][]uint32, len(bufs))
	for i, b := range bufs {
		then[i] = append([]uint32(nil), b...)
	}
	e.MultiTree([]int32{8, 9, 10, 11, 12}, false)
	e.MultiTree([]int32{13, 14}, false)
	for i := range bufs {
		for v := range bufs[i] {
			if bufs[i][v] != then[i][v] {
				t.Fatalf("lane %d vertex %d changed by a later sweep: %d, was %d", i, v, bufs[i][v], then[i][v])
			}
		}
	}
}

func TestCopyLanesGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	g := gridGraph(rng, 5, 5, 10)
	n := g.NumVertices()
	e := newEngine(t, g, Options{})
	bufs := make([][]uint32, 3)
	for i := range bufs {
		bufs[i] = make([]uint32, n)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	e.Tree(0)
	mustPanic("CopyLanes after single Tree", func() { e.CopyLanes(bufs[:1]) })
	e.MultiTree([]int32{1, 2}, false)
	mustPanic("too many buffers", func() { e.CopyLanes(bufs) })
	mustPanic("too few buffers", func() { e.CopyLanes(bufs[:1]) })
	mustPanic("short buffer", func() { e.CopyLanes([][]uint32{bufs[0], bufs[1][:n-1]}) })
	e.CopyLanes(bufs[:2])
}
