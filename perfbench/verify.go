package main

import (
	"fmt"

	"phast"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// reference is the independent oracle of a run: Dijkstra over the
// original graph, which must be the graph the snapshot was built from,
// and the setup's first query with its Dijkstra tree.
type reference struct {
	eng    *phast.Engine // CH point-to-point queries (Engine.Query)
	dij    *sssp.Dijkstra
	source int32
	target int32
	tree   []uint32
}

func newReference(eng *phast.Engine, man *manifest, seed int64) (*reference, error) {
	g := eng.Graph()
	if fp := graphFingerprint(g); fp != man.GraphFNV {
		return nil, fmt.Errorf("snapshot graph fingerprint %s, generator built %s", fp, man.GraphFNV)
	}
	setup := newVertexStream(seed, streamSetup, g.NumVertices())
	ref := &reference{eng: eng, dij: sssp.NewDijkstra(g, pq.KindBinaryHeap)}
	ref.source, ref.target = setup.next(), setup.next()
	ref.dij.Run(ref.source)
	ref.tree = ref.dij.Distances()
	return ref, nil
}

// firstMismatch returns the first vertex whose labels differ, or -1.
func firstMismatch(got, want []uint32) int {
	if len(got) != len(want) {
		return 0
	}
	for v := range got {
		if got[v] != want[v] {
			return v
		}
	}
	return -1
}

// checkTree compares a served tree with Dijkstra from its source.
func (ref *reference) checkTree(source int32, dist []uint32) error {
	ref.dij.Run(source)
	want := ref.dij.Distances()
	if v := firstMismatch(dist, want); v >= 0 {
		return fmt.Errorf("tree from %d: vertex %d has %d, Dijkstra %d", source, v, at(dist, v), at(want, v))
	}
	return nil
}

func at(xs []uint32, i int) uint32 {
	if i < len(xs) {
		return xs[i]
	}
	return phast.Inf
}

// verifyTrees checks sampled trees bit for bit against Dijkstra; each
// mismatch is a failed operation.
func (r *run) verifyTrees(kept []keptTree) {
	for _, k := range kept {
		if err := r.ref.checkTree(k.source, k.dist); err != nil {
			r.fail.Add(1)
			logf("verify: %v", err)
		}
	}
}

// verifyRouted checks every routed distance against the CH
// point-to-point search, a code path independent of RPHAST.
func (r *run) verifyRouted(calls []opRecord) {
	for _, q := range calls {
		if want := r.ref.eng.Query(q.source, q.target); want != q.dist {
			r.fail.Add(1)
			logf("verify: distance %d->%d is %d, CH query %d", q.source, q.target, q.dist, want)
		}
	}
}
