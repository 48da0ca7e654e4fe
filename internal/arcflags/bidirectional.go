package arcflags

import (
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/pq"
)

// Bidirectional holds the two flag sets of the bidirectional arc-flags
// query the paper describes ("this approach can easily be made
// bidirectional"): forward flags on G pruned by the target's cell, and
// backward flags on the transpose pruned by the source's cell. The
// backward flags mark arcs lying on shortest paths *from* a cell, so
// their boundary trees are ordinary forward shortest-path trees — which
// PHAST provides natively.
type Bidirectional struct {
	fwd *ArcFlags
	bwd *ArcFlags // over g.Transpose(), same cells
}

// PHASTForwardTrees adapts a forward PHAST engine over G into the
// ReverseTreeFunc that flagging the transpose of G expects: distances to
// b in G^T are distances from b in G.
func PHASTForwardTrees(fwdEngine *core.Engine) ReverseTreeFunc {
	return func(b int32, dist []uint32) {
		fwdEngine.Tree(b)
		fwdEngine.CopyDistances(dist)
	}
}

// ComputeBidirectional builds both flag sets. reverseTree provides
// distances *to* a root in g (as in Compute); forwardTree provides
// distances *from* a root in g (PHASTForwardTrees or a Dijkstra
// equivalent).
func ComputeBidirectional(g *graph.Graph, cells []int32, k int,
	reverseTree, forwardTree ReverseTreeFunc) (*Bidirectional, error) {
	fwd, err := Compute(g, cells, k, reverseTree)
	if err != nil {
		return nil, err
	}
	bwd, err := Compute(g.Transpose(), cells, k, forwardTree)
	if err != nil {
		return nil, err
	}
	return &Bidirectional{fwd: fwd, bwd: bwd}, nil
}

// Forward exposes the forward flag set (for inspection/testing).
func (b *Bidirectional) Forward() *ArcFlags { return b.fwd }

// Backward exposes the transpose flag set.
func (b *Bidirectional) Backward() *ArcFlags { return b.bwd }

// BiQuery is a reusable bidirectional flag-pruned Dijkstra: the forward
// search relaxes only arcs flagged for the target's cell, the backward
// search only transpose arcs flagged for the source's cell, and both
// stop once their frontier minimum reaches the best meeting value µ.
type BiQuery struct {
	b       *Bidirectional
	fs, bs  *prunedSearch
	scanned int
}

// NewBiQuery creates a solver over the bidirectional flags.
func NewBiQuery(b *Bidirectional) *BiQuery {
	return &BiQuery{
		b:  b,
		fs: newPrunedSearch(b.fwd),
		bs: newPrunedSearch(b.bwd),
	}
}

// Distance returns the exact s→t distance. Both searches advance by
// smaller frontier minimum and stop together once min_f + min_b ≥ µ —
// at that point no undiscovered meeting vertex can improve µ, since a
// path through it would cost at least the sum of the two minima.
func (q *BiQuery) Distance(s, t int32) uint32 {
	q.fs.init(s, q.b.fwd.cells[t])
	q.bs.init(t, q.b.bwd.cells[s])
	mu := graph.Inf
	for {
		mf, mb := q.fs.minKey(), q.bs.minKey()
		if graph.AddSat(mf, mb) >= mu {
			break
		}
		side, other := q.fs, q.bs
		if mb < mf {
			side, other = q.bs, q.fs
		}
		v, dv := side.settleNext()
		if od := other.dist(v); od != graph.Inf {
			if m := graph.AddSat(dv, od); m < mu {
				mu = m
			}
		}
	}
	q.scanned = q.fs.scanned + q.bs.scanned
	return mu
}

// Scanned returns the total vertices both searches scanned in the last
// Distance call.
func (q *BiQuery) Scanned() int { return q.scanned }

// prunedSearch is one direction of the bidirectional query: Dijkstra
// over one flag set, restricted to one cell's flags.
type prunedSearch struct {
	f       *ArcFlags
	q       *pq.BinaryHeap
	distv   []uint32
	stamp   []int32
	version int32
	cell    int32
	stopped bool
	scanned int
}

func newPrunedSearch(f *ArcFlags) *prunedSearch {
	n := f.g.NumVertices()
	return &prunedSearch{
		f:     f,
		q:     pq.NewBinaryHeap(n),
		distv: make([]uint32, n),
		stamp: make([]int32, n),
	}
}

func (s *prunedSearch) init(root, cell int32) {
	s.version++
	s.q.Reset()
	s.cell = cell
	s.stopped = false
	s.scanned = 0
	s.distv[root] = 0
	s.stamp[root] = s.version
	s.q.Insert(root, 0)
}

func (s *prunedSearch) done() bool { return s.stopped || s.q.Empty() }

func (s *prunedSearch) minKey() uint32 {
	if s.q.Empty() {
		return graph.Inf
	}
	v, k := s.q.ExtractMin()
	s.q.Insert(v, k)
	return k
}

func (s *prunedSearch) settleNext() (int32, uint32) {
	v, dv := s.q.ExtractMin()
	s.scanned++
	first := s.f.g.FirstOut()
	arcs := s.f.g.ArcList()
	for i := first[v]; i < first[v+1]; i++ {
		if !s.f.Flag(int(i), s.cell) {
			continue
		}
		a := arcs[i]
		nd := graph.AddSat(dv, a.Weight)
		if s.stamp[a.Head] != s.version || nd < s.distv[a.Head] {
			s.distv[a.Head] = nd
			s.stamp[a.Head] = s.version
			s.q.Update(a.Head, nd)
		}
	}
	return v, dv
}

func (s *prunedSearch) dist(v int32) uint32 {
	if s.stamp[v] != s.version {
		return graph.Inf
	}
	return s.distv[v]
}
