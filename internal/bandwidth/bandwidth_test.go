package bandwidth

import (
	"testing"

	"phast/internal/ch"
	"phast/internal/roadnet"
)

func TestBoundsRunAndOrder(t *testing.T) {
	net, err := roadnet.Generate(roadnet.Params{Width: 48, Height: 48, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	h := ch.Build(net.Graph, ch.Options{Workers: 1})
	dist := make([]uint32, net.Graph.NumVertices())
	seq := Sequential(h.DownIn, dist, 3)
	trav := Traversal(h.DownIn, dist, 3)
	if seq <= 0 || trav <= 0 {
		t.Fatalf("non-positive measurements: %v %v", seq, trav)
	}
	// The vertex-loop traversal can never beat the straight stream by
	// more than noise; allow 2x margin for timer jitter on tiny runs.
	if trav*2 < seq {
		t.Fatalf("traversal (%v) implausibly faster than sequential (%v)", trav, seq)
	}
	if b := BytesTouched(h.DownIn, dist); b <= 0 {
		t.Fatalf("BytesTouched=%d", b)
	}
}

func TestTraversalComputesArcSums(t *testing.T) {
	net, err := roadnet.Generate(roadnet.Params{Width: 10, Height: 10, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	rev := g.Transpose()
	dist := make([]uint32, g.NumVertices())
	Traversal(rev, dist, 1)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		var want uint32
		for _, a := range rev.Arcs(v) {
			want += a.Weight
		}
		if dist[v] != want {
			t.Fatalf("dist[%d]=%d, want arc sum %d", v, dist[v], want)
		}
	}
}

func TestSequentialParallelRuns(t *testing.T) {
	net, err := roadnet.Generate(roadnet.Params{Width: 32, Height: 32, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]uint32, net.Graph.NumVertices())
	if d := SequentialParallel(net.Graph, dist, 2, 4); d <= 0 {
		t.Fatalf("parallel bound %v", d)
	}
	if d := SequentialParallel(net.Graph, dist, 1, 0); d <= 0 {
		t.Fatal("workers<1 not defaulted")
	}
}

// TestSweepTrafficTerms pins the sweep traffic model: the graph walk
// once (the stream bytes plus one word per vertex — the k=1 label
// prefill or the k ≥ 2 block index — or the CSR layout when no stream
// is given), k tail-label reads per arc and k label writes per vertex,
// plus the order and parent terms.
func TestSweepTrafficTerms(t *testing.T) {
	const n, m = 100, 400
	labels := func(k int64) int64 { return k * (m*4 + n*4) }
	stream := SweepTraffic{N: n, M: m, K: 8, StreamBytes: 1000}
	if got, want := stream.Bytes(), 1000+n*4+labels(8); got != want {
		t.Fatalf("k=8 stream sweep = %d B, want %d", got, want)
	}
	single := SweepTraffic{N: n, M: m, K: 1, StreamBytes: 1000}
	if got, want := single.Bytes(), 1000+n*4+labels(1); got != want {
		t.Fatalf("k=1 stream sweep = %d B, want %d", got, want)
	}
	csr := SweepTraffic{N: n, M: m}
	if got, want := csr.Bytes(), int64((n+1)*4+m*8+n)+labels(1); got != want {
		t.Fatalf("K=0 CSR sweep = %d B, want %d", got, want)
	}
	ordered := stream
	ordered.Ordered = true
	if got := ordered.Bytes() - stream.Bytes(); got != n*4 {
		t.Fatalf("order term = %d B, want %d", got, n*4)
	}
	parents := stream
	parents.Parents = true
	if got := parents.Bytes() - stream.Bytes(); got != n*4 {
		t.Fatalf("parent term = %d B, want %d", got, n*4)
	}
}
