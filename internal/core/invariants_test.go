package core

import (
	"math/rand"
	"testing"

	"phast/internal/invariant"
)

// TestEngineCheckInvariants wires the checked-build validators into the
// core suite: every sweep mode's preprocessed data must validate, both
// freshly built and after sweeps have run. Under a release build the
// validators are no-ops and this pins only that the call is cheap and
// nil; `go test -tags phastdebug ./internal/core` performs the deep
// validation CI runs.
func TestEngineCheckInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := gridGraph(rng, 9, 8, 25)
	for _, mode := range []SweepMode{SweepReordered, SweepLevelOrder, SweepRankOrder} {
		e := newEngine(t, g, Options{Mode: mode})
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("mode %v: fresh engine: %v", mode, err)
		}
		e.Tree(3)
		e.MultiTree([]int32{0, 5, 9, 14}, true)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("mode %v: after sweeps: %v", mode, err)
		}
	}
	// Variable cache-budget chunk boundaries (a tiny explicit budget
	// forces many uneven chunks) must validate through ChunkDepsAt too.
	e := newEngine(t, g, Options{Workers: 2, ChunkBytes: 64})
	e.TreeParallel(3)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("byte-budget chunking: %v", err)
	}
}

// TestCHHeapInvariants white-box checks the search heap against the
// invariant validators through a randomized update/pop workload, and —
// in checked builds — that a corrupted heap is caught.
func TestCHHeapInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const n = 64
	h := newCHHeap(n)
	check := func(stage string) {
		t.Helper()
		if err := invariant.MinHeap(h.keys); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if err := invariant.HeapIndex(h.vs, h.pos); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	check("empty")
	inHeap := make(map[int32]uint32)
	for op := 0; op < 400; op++ {
		if rng.Intn(3) < 2 || len(inHeap) == 0 {
			v := int32(rng.Intn(n))
			key := uint32(rng.Intn(1000))
			if old, ok := inHeap[v]; ok && key > old {
				key = old // chHeap.update only decreases existing keys
			}
			h.update(v, key)
			inHeap[v] = key
		} else {
			v, key := h.pop()
			if want := inHeap[v]; key != want {
				t.Fatalf("pop returned key %d for %d, want %d", key, v, want)
			}
			delete(inHeap, v)
		}
		check("after op")
	}
	for len(inHeap) > 0 {
		v, _ := h.pop()
		delete(inHeap, v)
		check("draining")
	}
	h.reset()
	check("after reset")

	if invariant.Enabled {
		h.update(1, 10)
		h.update(2, 20)
		h.update(3, 30)
		h.keys[0] = 99 // break the root's order without fixing up
		if err := invariant.MinHeap(h.keys); err == nil {
			t.Fatal("checked build missed a broken heap order")
		}
		h.pos[h.vs[0]] = -1 // stale index entry
		if err := invariant.HeapIndex(h.vs, h.pos); err == nil {
			t.Fatal("checked build missed a stale heap index")
		}
	}
}
