package core

import "phast/internal/graph"

// MultiTree grows one tree per source in a single sweep (Section IV-B):
// each vertex keeps k = len(sources) labels, contiguous at
// kdist[v*k : v*k+k]; the k upward CH searches run sequentially, then
// one pass over the downward arcs relaxes all k trees. Larger k
// improves the locality of the tail-label reads at the cost of k·n
// label memory.
//
// Every k is relaxed by the register kernel of multi_relax.go (lane
// groups of 4, 2 and 1 — the stand-in for the paper's SSE 4.1 packed
// add/min; this build has no SIMD intrinsics, see DESIGN.md), and a
// k=1 batch runs the single-tree kernel: at k=1 the vertex-major
// layout is dist's. useLanes is ignored; it stays in the signature
// for existing callers.
//
// Labels are read back with MultiDist. Sources are original vertex IDs.
func (e *Engine) MultiTree(sources []int32, useLanes bool) {
	e.multiTree(sources, false)
}

// MultiTreeParallel combines the k-sources-per-sweep batching of
// Section IV-B with the scheduled parallel sweep: the k upward searches
// run sequentially (they are microseconds), then the workers relax all
// k lanes of every chunk they claim with MultiTree's kernels. Falls
// back to the sequential multi-sweep when a single worker is configured
// or the graph is smaller than one chunk. useLanes is ignored, as in
// MultiTree.
func (e *Engine) MultiTreeParallel(sources []int32, useLanes bool) {
	e.multiTree(sources, true)
}

func (e *Engine) multiTree(sources []int32, parallel bool) {
	k := len(sources)
	if k == 0 {
		e.k = 0
		return
	}
	s := e.s
	if cap(e.kdist) < k*s.n {
		e.kdist = make([]uint32, k*s.n)
	}
	e.kdist = e.kdist[:k*s.n]
	e.k = k
	e.lastMulti = true
	e.hasParents = false // the upward searches below move e.src
	if k == 1 {
		// kdist stands in for dist for one single-tree search and sweep;
		// the swap back leaves dist's last labels in place (unreadable
		// while lastMulti holds).
		e.dist, e.kdist = e.kdist, e.dist
		e.singleTree(sources[0], nil, parallel)
		e.dist, e.kdist = e.kdist, e.dist
		return
	}
	e.touched = e.touched[:0]
	for i, src := range sources {
		e.chSearchLane(src, i, k)
	}
	e.buildSeeds()
	e.sweep(packedMulti, k, parallel)
}

// K returns the tree count of the last MultiTree call.
func (e *Engine) K() int { return e.k }

// MultiDist returns the label of original-ID vertex v in tree i of the
// last MultiTree call.
func (e *Engine) MultiDist(i int, v int32) uint32 {
	return e.kdist[int(e.s.toEngine[v])*e.k+i]
}

// RawMultiDistances exposes the engine-ID-indexed label array of the
// last MultiTree: the k labels of engine vertex v at [v*k : v*k+k].
//
// Aliasing contract: like RawDistances, this is the engine's working
// buffer. The next MultiTree/MultiTreeParallel call overwrites it (and a
// call with a different k changes its layout); copy any lane that must
// survive with CopyLaneDistances.
func (e *Engine) RawMultiDistances() []uint32 { return e.kdist }

// CopyLaneDistances writes the labels of tree i of the last
// MultiTree/MultiTreeParallel call into buf indexed by original vertex
// ID (graph.Inf marks unreached vertices). len(buf) must be n. buf is a
// private snapshot that stays valid across later sweeps on this engine —
// the safe read-back for results that cross a goroutine or batch
// boundary.
func (e *Engine) CopyLaneDistances(i int, buf []uint32) {
	if !e.lastMulti {
		panic("core: last computation was not MultiTree; read labels with CopyDistances")
	}
	if i < 0 || i >= e.k {
		panic("core: CopyLaneDistances lane out of range")
	}
	if len(buf) != e.s.n {
		panic("core: CopyLaneDistances buffer has wrong length")
	}
	kd, toEngine, k := e.kdist, e.s.toEngine, e.k
	for orig := range buf {
		buf[orig] = kd[int(toEngine[orig])*k+i]
	}
}

// CopyLanes writes every tree of the last MultiTree/MultiTreeParallel
// call into bufs — tree i into bufs[i], indexed by original vertex ID —
// with the same snapshot guarantee as CopyLaneDistances. len(bufs) must
// be K() and every buffer's length n.
//
// Where k CopyLaneDistances calls read each vertex's label row k times,
// CopyLanes walks the lanes in the relax's groups of 4, 2 and 1
// (multi_relax.go): one pass over the vertices per group reads the
// group's adjacent labels kdist[v*k+j : +4] together and writes four
// sequential output streams, so each row is read about k/4 times.
//
//phast:hotpath
func (e *Engine) CopyLanes(bufs [][]uint32) {
	if !e.lastMulti {
		panic("core: last computation was not MultiTree; read labels with CopyDistances")
	}
	if len(bufs) != e.k {
		panic("core: CopyLanes needs one buffer per tree")
	}
	n := e.s.n
	for _, buf := range bufs {
		if len(buf) != n {
			panic("core: CopyLanes buffer has wrong length")
		}
	}
	kd, toEngine, k := e.kdist, e.s.toEngine[:n], e.k
	j := 0
	for ; j+4 <= k; j += 4 {
		b0, b1, b2, b3 := bufs[j][:n], bufs[j+1][:n], bufs[j+2][:n], bufs[j+3][:n]
		for orig, v := range toEngine {
			u := int(v)*k + j
			row := kd[u : u+4 : u+4]
			b0[orig], b1[orig], b2[orig], b3[orig] = row[0], row[1], row[2], row[3]
		}
	}
	if j+2 <= k {
		b0, b1 := bufs[j][:n], bufs[j+1][:n]
		for orig, v := range toEngine {
			u := int(v)*k + j
			row := kd[u : u+2 : u+2]
			b0[orig], b1[orig] = row[0], row[1]
		}
		j += 2
	}
	if j < k {
		b0 := bufs[j][:n]
		for orig, v := range toEngine {
			b0[orig] = kd[int(v)*k+j]
		}
	}
}

// chSearchLane runs the upward search for lane i of k. The first time a
// vertex is touched this round all of its k lanes are set to Inf before
// lane i is written, preserving the implicit-initialization invariant
// for the other lanes.
//
//phast:hotpath
func (e *Engine) chSearchLane(source int32, lane, k int) {
	src := e.s.toEngine[source]
	e.src = src
	q := e.queue
	q.reset()
	up := e.s.up
	kd := e.kdist
	touch := func(v int32) []uint32 {
		base := int(v) * k
		lanes := kd[base : base+k]
		if !e.mark[v] {
			e.mark[v] = true
			e.touched = append(e.touched, v)
			for j := range lanes {
				lanes[j] = graph.Inf
			}
		}
		return lanes
	}
	touch(src)[lane] = 0
	q.update(src, 0)
	for !q.empty() {
		v, dv := q.pop()
		for _, a := range up.Arcs(v) {
			nd := graph.AddSat(dv, a.Weight)
			lanes := touch(a.Head)
			if nd < lanes[lane] {
				lanes[lane] = nd
				q.update(a.Head, nd)
			}
		}
	}
}
