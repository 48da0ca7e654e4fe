package core

import "phast/internal/graph"

// Tree computes all distance labels from source (an original-graph
// vertex ID) with one upward CH search and one sequential linear sweep.
// Labels are read back with Dist/RawDistances; previous results become
// invalid. Parent pointers are not recorded — use TreeWithParents.
func (e *Engine) Tree(source int32) { e.tree(source, false) }

// TreeParallel computes the tree from source using the multi-core sweep
// of Section V on the persistent scheduler. Falls back to the
// sequential sweep when a single worker is configured or the graph is
// smaller than one chunk.
func (e *Engine) TreeParallel(source int32) { e.tree(source, true) }

func (e *Engine) tree(source int32, parallel bool) {
	e.hasParents = false
	e.lastMulti = false
	e.singleTree(source, nil, parallel)
}

// TreeWithParents is Tree but additionally records, for every vertex,
// the arc of G+ = (V, A ∪ A+) responsible for its label (Section VII-A).
func (e *Engine) TreeWithParents(source int32) { e.treeWithParents(source, false) }

// TreeWithParentsParallel is TreeParallel additionally recording, for
// every vertex, the arc of G+ responsible for its label (Section
// VII-A), enabling PathTo.
func (e *Engine) TreeWithParentsParallel(source int32) { e.treeWithParents(source, true) }

func (e *Engine) treeWithParents(source int32, parallel bool) {
	if e.parent == nil {
		e.parent = make([]int32, e.s.n)
	}
	e.hasParents = true
	e.lastMulti = false
	e.singleTree(source, e.parent, parallel)
}

// singleTree runs both phases of one tree into e.dist (and parents when
// non-nil): the labels are prefilled with Inf (parents with -1), the
// upward search seeds its search space in place, and the single-tree
// kernel sweeps on the pooled scheduler when parallel is set and the
// engine has one, else over all of [0,n) on the calling goroutine.
func (e *Engine) singleTree(source int32, parents []int32, parallel bool) {
	fillInf(e.dist)
	kind := packedSingle
	if parents != nil {
		for i := range parents {
			parents[i] = -1
		}
		kind = packedParents
	}
	e.chSearch(source, parents)
	e.clearMarks()
	e.sweep(kind, 1, parallel)
}

// sweep is PHAST's second phase for every tree family: the kind's
// kernel runs on the pooled scheduler when parallel is set and the
// engine has one, else over all of [0,n) on the calling goroutine.
func (e *Engine) sweep(kind sweepKind, k int, parallel bool) {
	if !parallel || !e.parallelSweep(kind, k) {
		e.scanChunkKind(kind, k, 0, int32(e.s.n))
	}
}

// chSearch is PHAST's first phase: Dijkstra from the source in the
// upward graph, run until the queue empties (the loose target-independent
// criterion of Section II-B). It labels vertices in e.dist and marks
// them; unmarked labels are implicitly infinite (Section IV-C).
// If parents is non-nil the search records G+ parent pointers.
//
//phast:hotpath
func (e *Engine) chSearch(source int32, parents []int32) {
	src := e.s.toEngine[source]
	e.src = src
	q := e.queue
	q.reset()
	e.touched = append(e.touched[:0], src)
	e.dist[src] = 0
	e.mark[src] = true
	if parents != nil {
		parents[src] = -1
	}
	q.update(src, 0)
	up := e.s.up
	for !q.empty() {
		v, dv := q.pop()
		for _, a := range up.Arcs(v) {
			nd := graph.AddSat(dv, a.Weight)
			if !e.mark[a.Head] || nd < e.dist[a.Head] {
				if !e.mark[a.Head] {
					e.touched = append(e.touched, a.Head)
				}
				e.dist[a.Head] = nd
				e.mark[a.Head] = true
				if parents != nil {
					parents[a.Head] = v
				}
				q.update(a.Head, nd)
			}
		}
	}
}

// UpwardSearchSpaceWithParents is UpwardSearchSpace but also returns the
// G+ parent (engine ID, -1 for the source) of each labeled vertex, which
// GPHAST's tree-reconstruction mode seeds its device parent array with.
// Like UpwardSearchSpace it appends to the given slices (which may be
// nil), so a caller that reuses its scratch keeps the per-tree CPU phase
// allocation-free.
func (e *Engine) UpwardSearchSpaceWithParents(source int32, verts []int32, dists []uint32, parents []int32) ([]int32, []uint32, []int32) {
	if e.parent == nil {
		//phastlint:ignore hotalloc one-time warm-up of the parent array, amortized over every later tree
		e.parent = make([]int32, e.s.n)
	}
	e.hasParents = false // only a partial (upward) tree: PathTo stays off
	e.chSearch(source, e.parent)
	for _, v := range e.touched {
		verts = append(verts, v)
		dists = append(dists, e.dist[v])
		parents = append(parents, e.parent[v])
		e.mark[v] = false
	}
	return verts, dists, parents
}

// UpwardSearchSpace runs only PHAST's first phase from source and
// returns the engine-ID vertices the upward CH search labeled together
// with their final labels — the "search space" GPHAST copies to the GPU
// (<2KB per tree, Section VI). Appended to the given slices (which may
// be nil). The engine's per-tree state is fully reset before returning,
// so the call does not disturb subsequent Tree computations.
func (e *Engine) UpwardSearchSpace(source int32, verts []int32, dists []uint32) ([]int32, []uint32) {
	e.hasParents = false
	e.chSearch(source, nil)
	for _, v := range e.touched {
		verts = append(verts, v)
		dists = append(dists, e.dist[v])
		e.mark[v] = false
	}
	return verts, dists
}

// ParentGPlus returns the G+ parent (original ID space) of v recorded by
// the last TreeWithParents, or -1 for the source and unreached vertices.
// The parent arc may be a shortcut.
func (e *Engine) ParentGPlus(v int32) int32 {
	if !e.hasParents {
		panic("core: ParentGPlus called without TreeWithParents")
	}
	p := e.parent[e.s.toEngine[v]]
	if p < 0 {
		return -1
	}
	return e.s.toOrig[p]
}

// RawParents exposes the engine-ID parent array of the last
// TreeWithParents call (engine IDs, -1 for roots/unreached).
func (e *Engine) RawParents() []int32 { return e.parent }

// GTreeParents derives a shortest-path tree of the original graph from
// the labels of the last Tree call, using the identity test of Section
// VII-A: one pass over the arcs of G makes u the parent of v whenever
// d(v) = d(u) + l(u,v). All arc lengths must be strictly positive, else
// zero-weight cycles could produce parent cycles. buf must have length n
// and is indexed by original vertex ID; entries are original IDs or -1.
// Like Dist, it panics when the last computation was a MultiTree.
func (e *Engine) GTreeParents(buf []int32) {
	if e.lastMulti {
		panic("core: last computation was MultiTree; GTreeParents needs a single tree")
	}
	if len(buf) != e.s.n {
		panic("core: GTreeParents buffer has wrong length")
	}
	g := e.s.h.G // engine ID space
	dist := e.dist
	toOrig := e.s.toOrig
	for i := range buf {
		buf[i] = -1
	}
	n := int32(e.s.n)
	for u := int32(0); u < n; u++ {
		du := dist[u]
		if du == graph.Inf {
			continue
		}
		for _, a := range g.Arcs(u) {
			if graph.AddSat(du, a.Weight) == dist[a.Head] && a.Head != e.src {
				buf[toOrig[a.Head]] = toOrig[u]
			}
		}
	}
}

// PathTo expands the G+ parent chain of v (original ID) recorded by the
// last TreeWithParents into a full path of original-graph vertices from
// the source, unpacking shortcuts (Section VII-A). Returns nil if v is
// unreached.
func (e *Engine) PathTo(v int32) []int32 {
	if !e.hasParents {
		panic("core: PathTo called without TreeWithParents")
	}
	ev := e.s.toEngine[v]
	if e.dist[ev] == graph.Inf {
		return nil
	}
	// Climb to the root collecting the engine-ID chain.
	var chain []int32
	for x := ev; x >= 0; x = e.parent[x] {
		chain = append(chain, x)
		if x == e.src {
			break
		}
	}
	// chain is v..src; reverse to src..v.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	h := e.s.h
	path := []int32{e.s.toOrig[chain[0]]}
	for i := 1; i < len(chain); i++ {
		u, w := chain[i-1], chain[i]
		var seg []int32
		if h.Rank[u] < h.Rank[w] {
			seg = h.UnpackUpArc(u, w)
		} else {
			seg = h.UnpackDownArc(u, w)
		}
		for _, x := range seg[1:] {
			path = append(path, e.s.toOrig[x])
		}
	}
	return path
}
