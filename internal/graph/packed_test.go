package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func randomPackedGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.MustAddArc(int32(rng.Intn(n)), int32(rng.Intn(n)), uint32(rng.Intn(1000)))
	}
	return b.Build()
}

func randomPerm(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// randomTopoGraph builds a graph whose arcs all point backward in the
// given sweep order (order[p] scanned at p; nil = identity), matching
// the reverse-topological downward graphs of the sweep. Weights span
// 8-bit, 16-bit and full 32-bit magnitudes and include Inf.
func randomTopoGraph(rng *rand.Rand, n, m int, order []int32) *Graph {
	pos := make([]int32, n)
	for p := 0; p < n; p++ {
		v := int32(p)
		if order != nil {
			v = order[p]
		}
		pos[v] = int32(p)
	}
	vertexAt := func(p int32) int32 {
		if order != nil {
			return order[p]
		}
		return p
	}
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		tp := 1 + rng.Intn(n-1) // tail position; needs an earlier head
		hp := rng.Intn(tp)
		b.MustAddArc(vertexAt(int32(tp)), vertexAt(int32(hp)), uint32(rng.Intn(1000)))
	}
	g := b.Build()
	// The builder caps weights at MaxWeight; Inf and the full 32-bit
	// range only arise through metric customization, so re-metric in
	// place.
	for v := int32(0); int(v) < n; v++ {
		arcs := g.Arcs(v)
		for i := range arcs {
			switch rng.Intn(5) {
			case 0:
				arcs[i].Weight = uint32(rng.Intn(0x100)) // 8-bit range incl. 0xFF
			case 1:
				arcs[i].Weight = uint32(rng.Intn(0x10000)) // 16-bit range incl. 0xFFFF
			case 2:
				arcs[i].Weight = rng.Uint32() // full range
			case 3:
				arcs[i].Weight = Inf
			}
		}
	}
	return g
}

func TestPackedIdentityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		g := randomPackedGraph(rng, n, rng.Intn(4*n))
		p, err := NewPacked(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.ExplicitVertex() {
			t.Fatal("identity order must elide vertex words")
		}
		if want := n + 2*g.NumArcs(); p.Words() != want {
			t.Fatalf("Words()=%d, want %d", p.Words(), want)
		}
		if p.NumVertices() != n || p.NumArcs() != g.NumArcs() {
			t.Fatalf("dims %d/%d, want %d/%d", p.NumVertices(), p.NumArcs(), n, g.NumArcs())
		}
		ug, order, err := p.Unpack()
		if err != nil {
			t.Fatal(err)
		}
		if order != nil {
			t.Fatal("identity unpack returned an order")
		}
		if !ug.Equal(g) {
			t.Fatal("identity round trip changed the graph")
		}
	}
}

func TestPackedOrderedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		g := randomPackedGraph(rng, n, rng.Intn(4*n))
		ord := randomPerm(rng, n)
		p, err := NewPacked(g, ord)
		if err != nil {
			t.Fatal(err)
		}
		if !p.ExplicitVertex() {
			t.Fatal("explicit order must carry vertex words")
		}
		if want := 2*n + 2*g.NumArcs(); p.Words() != want {
			t.Fatalf("Words()=%d, want %d", p.Words(), want)
		}
		ug, uord, err := p.Unpack()
		if err != nil {
			t.Fatal(err)
		}
		if !ug.Equal(g) {
			t.Fatal("ordered round trip changed the graph")
		}
		for i := range ord {
			if uord[i] != ord[i] {
				t.Fatalf("order[%d]=%d, want %d", i, uord[i], ord[i])
			}
		}
	}
}

func TestPackedBlockStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomPackedGraph(rng, 40, 120)
	for _, ord := range [][]int32{nil, randomPerm(rng, 40)} {
		p, err := NewPacked(g, ord)
		if err != nil {
			t.Fatal(err)
		}
		bs := p.BlockStarts()
		if len(bs) != 41 {
			t.Fatalf("len(BlockStarts)=%d, want 41", len(bs))
		}
		if bs[0] != 0 || bs[40] != p.Words() {
			t.Fatalf("BlockStarts endpoints %d..%d, want 0..%d", bs[0], bs[40], p.Words())
		}
		stream := p.Stream()
		for pos := 0; pos < 40; pos++ {
			if bs[pos+1] <= bs[pos] {
				t.Fatalf("BlockStarts not strictly increasing at %d", pos)
			}
			deg := int(stream[bs[pos]])
			want := bs[pos] + 1 + 2*deg
			if p.ExplicitVertex() {
				want++
			}
			if bs[pos+1] != want {
				t.Fatalf("block %d spans [%d,%d), deg %d implies end %d", pos, bs[pos], bs[pos+1], deg, want)
			}
		}
	}
}

func TestPackedStreamGrammar(t *testing.T) {
	// Tiny hand-built graph: exact word-for-word layout.
	g, err := FromArcs(3, [][3]int64{{0, 1, 10}, {0, 2, 20}, {2, 1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPacked(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{2, 1, 10, 2, 20, 0, 1, 1, 5}
	got := p.Stream()
	if len(got) != len(want) {
		t.Fatalf("stream %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream %v, want %v", got, want)
		}
	}
	ord := []int32{2, 0, 1}
	p2, err := NewPacked(g, ord)
	if err != nil {
		t.Fatal(err)
	}
	want2 := []uint32{1, 2, 1, 5, 2, 0, 1, 10, 2, 20, 0, 1}
	got2 := p2.Stream()
	if len(got2) != len(want2) {
		t.Fatalf("ordered stream %v, want %v", got2, want2)
	}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Fatalf("ordered stream %v, want %v", got2, want2)
		}
	}
}

func TestPackedOrderErrors(t *testing.T) {
	g, err := FromArcs(3, [][3]int64{{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int32{
		{0, 1},              // wrong length
		{0, 1, 1},           // duplicate
		{0, 1, 3},           // out of range
		{0, 1, -1},          // negative
		{2, 2, 0},           // duplicate, different spot
		{0, 1, 2, 2},        // too long
		make([]int32, 0, 1), // empty but non-nil
	} {
		if _, err := NewPacked(g, bad); err == nil {
			t.Fatalf("order %v accepted", bad)
		}
	}
}

func TestPackedWeightBoundary(t *testing.T) {
	// MaxWeight survives the round trip unchanged (words are raw uint32).
	g, err := FromArcs(2, [][3]int64{{0, 1, int64(MaxWeight)}, {1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPacked(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ug, _, err := p.Unpack()
	if err != nil {
		t.Fatal(err)
	}
	if !ug.Equal(g) {
		t.Fatal("boundary weights corrupted")
	}
}

func TestPackedUnpackRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomPackedGraph(rng, 20, 60)
	p, err := NewPacked(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Degree inflated past the stream end.
	p.stream[0] = uint32(p.Words())
	if _, _, err := p.Unpack(); err == nil {
		t.Fatal("overrunning degree accepted")
	}
	// Rebuild, then corrupt a head out of range.
	p, err = NewPacked(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for pos, bs := 0, p.BlockStarts(); pos < 20; pos++ {
		if p.stream[bs[pos]] > 0 {
			p.stream[bs[pos]+1] = uint32(p.NumVertices())
			break
		}
	}
	if _, _, err := p.Unpack(); err == nil {
		t.Fatal("out-of-range head accepted")
	}
}

// FuzzPackedRoundTrip encodes a random reverse-topological graph into
// the packed stream and checks that Unpack recovers the graph and the
// sweep order, and that WithWeights under a second metric yields the
// same words as a fresh encode of the re-weighted graph.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(uint16(8), uint16(20), int64(1))
	f.Add(uint16(1), uint16(0), int64(2))
	f.Add(uint16(300), uint16(900), int64(3))
	f.Add(uint16(2), uint16(1), int64(4))
	f.Add(uint16(64), uint16(512), int64(5))
	f.Add(uint16(2), uint16(500), int64(7))
	f.Add(uint16(511), uint16(2047), int64(9))
	f.Add(uint16(100), uint16(400), int64(42))
	f.Add(uint16(1), uint16(0), int64(0))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed int64) {
		n := 1 + int(nRaw)%512
		m := int(mRaw) % 2048
		if n < 2 {
			m = 0
		}
		rng := rand.New(rand.NewSource(seed))
		var ord []int32
		if seed%2 == 0 {
			ord = randomPerm(rng, n)
		}
		g := NewBuilder(n).Build()
		if n >= 2 {
			g = randomTopoGraph(rng, n, m, ord)
		}
		p, err := NewPacked(g, ord)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		ug, uord, err := p.Unpack()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !ug.Equal(g) {
			t.Fatal("round trip changed the graph")
		}
		if (uord == nil) != (ord == nil) {
			t.Fatal("round trip changed order presence")
		}
		for i := range ord {
			if uord[i] != ord[i] {
				t.Fatalf("order[%d]=%d, want %d", i, uord[i], ord[i])
			}
		}
		weights := make([]uint32, g.NumArcs())
		for i := range weights {
			weights[i] = rng.Uint32()
		}
		g2, err := g.WithWeights(weights)
		if err != nil {
			t.Fatal(err)
		}
		patched, err := p.WithWeights(g2)
		if err != nil {
			t.Fatalf("patch: %v", err)
		}
		fresh, err := NewPacked(g2, ord)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(patched.Stream(), fresh.Stream()) || !slices.Equal(patched.BlockStarts(), fresh.BlockStarts()) {
			t.Fatal("WithWeights differs from a fresh encode of the re-weighted graph")
		}
	})
}
