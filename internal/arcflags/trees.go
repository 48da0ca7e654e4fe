package arcflags

import (
	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/gphast"
	"phast/internal/graph"
	"phast/internal/pq"
	"phast/internal/sssp"
)

// NewReverseEngine builds a PHAST engine over the transpose of g, the
// input PHASTReverseTrees expects. The CH preprocessing of the reverse
// graph is independent of the forward hierarchy.
func NewReverseEngine(g *graph.Graph, chOpt ch.Options, coreOpt core.Options) (*core.Engine, error) {
	h := ch.Build(g.Transpose(), chOpt)
	return core.NewEngine(h, coreOpt)
}

// DijkstraReverseTrees returns a ReverseTreeFunc running plain Dijkstra
// on the transpose of g — the slow baseline the paper replaces (about
// 10.5 hours of preprocessing on four cores for Europe).
func DijkstraReverseTrees(g *graph.Graph) ReverseTreeFunc {
	d := sssp.NewDijkstra(g.Transpose(), pq.KindDial)
	return func(b int32, dist []uint32) {
		d.Run(b)
		d.CopyDistances(dist)
	}
}

// PHASTReverseTrees returns a ReverseTreeFunc backed by a PHAST engine.
// revEngine must have been built over the *transpose* of the flagged
// graph; passing a forward engine silently computes wrong flags, so
// callers normally obtain one from NewReverseEngine.
func PHASTReverseTrees(revEngine *core.Engine) ReverseTreeFunc {
	return func(b int32, dist []uint32) {
		revEngine.Tree(b)
		revEngine.CopyDistances(dist)
	}
}

// GPHASTReverseTrees returns a ReverseTreeFunc running the sweep on the
// simulated GPU (the configuration that reduces flag preprocessing to
// under 3 minutes in the paper). revEngine must be built over the
// transpose of the flagged graph.
func GPHASTReverseTrees(revEngine *gphast.Engine, n int) ReverseTreeFunc {
	buf := make([]uint32, n)
	return func(b int32, dist []uint32) {
		revEngine.Tree(b)
		revEngine.CopyDistances(0, buf) // engine-ID indexed, covers all vertices
		for ev := int32(0); int(ev) < len(buf); ev++ {
			dist[revEngine.OrigID(ev)] = buf[ev]
		}
	}
}
