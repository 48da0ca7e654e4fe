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

// TestSweepTrafficLabelRereads pins the memory-resident label model of
// the CSR oracle's multi kernels: one extra label read per arc per
// lane, and the flag is inert for single-tree sweeps.
func TestSweepTrafficLabelRereads(t *testing.T) {
	base := SweepTraffic{N: 100, M: 400, K: 8, StreamBytes: 1000}
	aos := base
	aos.LabelRereads = true
	if got, want := aos.Bytes()-base.Bytes(), int64(8*400*4); got != want {
		t.Fatalf("k=8 re-read term = %d, want %d", got, want)
	}
	single := SweepTraffic{N: 100, M: 400, K: 1, StreamBytes: 1000}
	aos1 := single
	aos1.LabelRereads = true
	if aos1.Bytes() != single.Bytes() {
		t.Fatalf("LabelRereads changed a single-tree sweep: %d vs %d", aos1.Bytes(), single.Bytes())
	}
}
