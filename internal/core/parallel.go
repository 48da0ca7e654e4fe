package core

import "phast/internal/graph"

// Parallel sweep entry points and the CSR chunk kernels they schedule.
// All parallel kernel families (single-tree, parents, multi-tree; CSR,
// packed and compressed) run as chunk scans on the persistent
// scheduler of scheduler.go: the entry point runs the upward search,
// picks the kernel family, and hands fixed-size position chunks to the
// parked worker pool with dependency-bounded starts. The per-level
// fork-join of the first Section V implementation survives behind
// Options.ForkJoinSweep as a differential oracle (forkjoin.go).

// TreeParallel computes the tree from source using the multi-core sweep
// of Section V on the persistent scheduler. Falls back to the
// sequential sweep when a single worker is configured or the graph is
// smaller than one chunk (Options.ParallelGrain).
func (e *Engine) TreeParallel(source int32) {
	e.hasParents = false
	e.lastMulti = false
	e.chSearch(source, nil)
	e.sweepTree(true)
}

// TreeWithParentsParallel is TreeParallel additionally recording, for
// every vertex, the arc of G+ responsible for its label (Section
// VII-A), enabling PathTo. Under the fork-join oracle the parents
// family falls back to the sequential kernel — the oracle exists to
// differentially check the scheduler, not to serve queries.
func (e *Engine) TreeWithParentsParallel(source int32) {
	if e.parent == nil {
		e.parent = make([]int32, e.s.n)
	}
	e.hasParents = true
	e.lastMulti = false
	e.chSearch(source, e.parent)
	if e.s.packedz != nil {
		e.buildSeeds()
		if !e.parallelSweep(packedZParents, 1) {
			e.sweepPackedZParents()
		}
		return
	}
	if e.s.packed != nil {
		e.buildSeeds()
		if !e.parallelSweep(packedParents, 1) {
			e.sweepPackedParents()
		}
		return
	}
	if e.parallelSweep(csrParents, 1) {
		return
	}
	if e.s.order == nil {
		e.sweepIdentityParents()
	} else {
		e.sweepOrderedParents()
	}
}

// MultiTreeParallel combines the k-sources-per-sweep batching of
// Section IV-B with the scheduled parallel sweep: the k upward searches
// run sequentially (they are microseconds), then the workers relax all
// k lanes of every chunk they claim, with the kernels and useLanes
// contract of MultiTree. Falls back to the sequential multi-sweep when
// a single worker is configured or the graph is smaller than one chunk.
func (e *Engine) MultiTreeParallel(sources []int32, useLanes bool) {
	e.multiTree(sources, useLanes, true)
}

// scanCSRChunk relaxes sweep positions [lo,hi) of the single-tree CSR
// sweep. Every position is owned by exactly one chunk, so the mark
// clear and label write race with nobody; external labels are read only
// after the scheduler's frontier passed the chunk's dependency bound.
//
//phast:hotpath
func (e *Engine) scanCSRChunk(lo, hi int32) {
	first := e.s.downIn.FirstOut()
	arcs := e.s.downIn.ArcList()
	dist := e.dist
	mark := e.mark
	order := e.s.order
	for p := lo; p < hi; p++ {
		v := p
		if order != nil {
			v = order[p]
		}
		best := graph.Inf
		if mark[v] {
			best = dist[v]
			mark[v] = false
		}
		for i := first[v]; i < first[v+1]; i++ {
			a := arcs[i]
			if nd := graph.AddSat(dist[a.Head], a.Weight); nd < best {
				best = nd
			}
		}
		dist[v] = best
	}
}

// scanCSRParentsChunk is scanCSRChunk recording G+ parent pointers.
//
//phast:hotpath
func (e *Engine) scanCSRParentsChunk(lo, hi int32) {
	first := e.s.downIn.FirstOut()
	arcs := e.s.downIn.ArcList()
	dist := e.dist
	mark := e.mark
	parent := e.parent
	order := e.s.order
	for p := lo; p < hi; p++ {
		v := p
		if order != nil {
			v = order[p]
		}
		best := graph.Inf
		bestP := int32(-1)
		if mark[v] {
			best = dist[v]
			bestP = parent[v] // set by the CH search
			mark[v] = false
		}
		for i := first[v]; i < first[v+1]; i++ {
			a := arcs[i]
			if nd := graph.AddSat(dist[a.Head], a.Weight); nd < best {
				best = nd
				bestP = a.Head
			}
		}
		dist[v] = best
		parent[v] = bestP
	}
}

// scanCSRMultiChunk relaxes all k trees of sweep positions [lo,hi) with
// a scalar inner loop.
//
//phast:hotpath
func (e *Engine) scanCSRMultiChunk(lo, hi int32, k int) {
	first := e.s.downIn.FirstOut()
	arcs := e.s.downIn.ArcList()
	kd := e.kdist
	mark := e.mark
	order := e.s.order
	for p := lo; p < hi; p++ {
		v := p
		if order != nil {
			v = order[p]
		}
		base := int(v) * k
		dv := kd[base : base+k]
		if !mark[v] {
			for j := range dv {
				dv[j] = graph.Inf
			}
		} else {
			mark[v] = false
		}
		for i := first[v]; i < first[v+1]; i++ {
			a := arcs[i]
			ub := int(a.Head) * k
			du := kd[ub : ub+k]
			w := a.Weight
			for j := 0; j < k; j++ {
				if nd := graph.AddSat(du[j], w); nd < dv[j] {
					dv[j] = nd
				}
			}
		}
	}
}

// scanCSRLanesChunk is scanCSRMultiChunk with the inner loop unrolled
// into the 4-wide relax4 lanes (Section IV-B SSE analogue).
//
//phast:hotpath
func (e *Engine) scanCSRLanesChunk(lo, hi int32, k int) {
	first := e.s.downIn.FirstOut()
	arcs := e.s.downIn.ArcList()
	kd := e.kdist
	mark := e.mark
	order := e.s.order
	for p := lo; p < hi; p++ {
		v := p
		if order != nil {
			v = order[p]
		}
		base := int(v) * k
		dv := kd[base : base+k : base+k]
		if !mark[v] {
			for j := range dv {
				dv[j] = graph.Inf
			}
		} else {
			mark[v] = false
		}
		for i := first[v]; i < first[v+1]; i++ {
			a := arcs[i]
			ub := int(a.Head) * k
			du := kd[ub : ub+k : ub+k]
			for j := 0; j+4 <= k; j += 4 {
				relax4(dv[j:j+4:j+4], du[j:j+4:j+4], a.Weight)
			}
		}
	}
}
