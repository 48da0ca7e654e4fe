package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomPackedGraph draws m arcs between random distinct vertices (a
// packed stream has no self-loops); n = 1 yields no arcs.
func randomPackedGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m && n > 1; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n-1))
		if v >= u {
			v++
		}
		b.MustAddArc(u, v, uint32(rng.Intn(1000)))
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

// packedWords is the stream length of g: one word pair per arc, plus a
// dummy pair per vertex without arcs.
func packedWords(g *Graph) int {
	w := 2 * g.NumArcs()
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if g.OutDegree(v) == 0 {
			w += 2
		}
	}
	return w
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
		if want := packedWords(g); p.Words() != want {
			t.Fatalf("Words()=%d, want %d", p.Words(), want)
		}
		if p.NumVertices() != n || p.NumArcs() != g.NumArcs() {
			t.Fatalf("dims %d/%d, want %d/%d", p.NumVertices(), p.NumArcs(), n, g.NumArcs())
		}
		ug, err := p.Unpack(nil)
		if err != nil {
			t.Fatal(err)
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
		if want := packedWords(g); p.Words() != want {
			t.Fatalf("Words()=%d, want %d: an explicit order adds no words", p.Words(), want)
		}
		ug, err := p.Unpack(ord)
		if err != nil {
			t.Fatal(err)
		}
		if !ug.Equal(g) {
			t.Fatal("ordered round trip changed the graph")
		}
	}
}

// TestPackedBlockStarts checks the block index against the first-arc
// bits: every block is a non-empty run of word pairs whose first tail
// word, and only that one, carries FirstArc.
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
		if bs[0] != 0 || int(bs[40]) != p.Words() {
			t.Fatalf("BlockStarts endpoints %d..%d, want 0..%d", bs[0], bs[40], p.Words())
		}
		stream := p.Stream()
		for pos := 0; pos < 40; pos++ {
			lo, hi := bs[pos], bs[pos+1]
			if hi <= lo || (hi-lo)%2 != 0 {
				t.Fatalf("block %d spans [%d,%d)", pos, lo, hi)
			}
			for i := lo; i < hi; i += 2 {
				if got, want := stream[i]&FirstArc != 0, i == lo; got != want {
					t.Fatalf("block %d word %d: first-arc bit %v, want %v", pos, i, got, want)
				}
			}
			v := int32(pos)
			if ord != nil {
				v = ord[pos]
			}
			if deg := g.OutDegree(v); deg > 0 && int(hi-lo) != 2*deg {
				t.Fatalf("block %d spans %d words, vertex %d has %d arcs", pos, hi-lo, v, deg)
			}
		}
	}
}

func TestPackedStreamGrammar(t *testing.T) {
	// Tiny hand-built graph: exact word-for-word layout. Vertex 1 has
	// no arcs and gets the dummy (1, Inf).
	g, err := FromArcs(3, [][3]int64{{0, 1, 10}, {0, 2, 20}, {2, 1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	const F = FirstArc
	for _, c := range []struct {
		order  []int32
		stream []uint32
		starts []int32
	}{
		{nil, []uint32{1 | F, 10, 2, 20, 1 | F, Inf, 1 | F, 5}, []int32{0, 4, 6, 8}},
		{[]int32{2, 0, 1}, []uint32{1 | F, 5, 1 | F, 10, 2, 20, 1 | F, Inf}, []int32{0, 2, 6, 8}},
	} {
		p, err := NewPacked(g, c.order)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.Stream(), c.stream) || !slices.Equal(p.BlockStarts(), c.starts) {
			t.Fatalf("order %v: stream %v starts %v, want %v %v", c.order, p.Stream(), p.BlockStarts(), c.stream, c.starts)
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
	// A self-loop would be indistinguishable from a dummy arc.
	loop, err := FromArcs(2, [][3]int64{{1, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPacked(loop, nil); err == nil {
		t.Fatal("self-loop accepted")
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
	ug, err := p.Unpack(nil)
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
	for _, c := range []struct {
		what    string
		corrupt func(p *Packed)
	}{
		{"cleared first-arc bit", func(p *Packed) { p.stream[0] &^= FirstArc }},
		{"out-of-range tail", func(p *Packed) { p.stream[0] = uint32(p.NumVertices()) | FirstArc }},
		{"truncated block index", func(p *Packed) { p.blockStart[p.n]-- }},
	} {
		p, err := NewPacked(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.corrupt(p)
		if _, err := p.Unpack(nil); err == nil {
			t.Fatalf("%s accepted", c.what)
		}
	}
}

// TestPackedFromPartsRejectsForgery hands PackedFromParts streams forged
// one fault at a time from a valid one; each must be an error, never a
// stream the kernels would index out of range.
func TestPackedFromPartsRejectsForgery(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 30
	ord := randomPerm(rng, n)
	g := randomTopoGraph(rng, n, 90, ord)
	p, err := NewPacked(g, ord)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PackedFromParts(p.Stream(), p.BlockStarts(), ord, n, g.NumArcs()); err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	// multi is the first position with at least two arcs.
	bs := p.BlockStarts()
	multi := -1
	for pos := 0; pos < n && multi < 0; pos++ {
		if bs[pos+1]-bs[pos] >= 4 {
			multi = pos
		}
	}
	if multi < 0 {
		t.Fatal("fixture has no position with two arcs")
	}
	for _, c := range []struct {
		what  string
		forge func(stream []uint32, starts []int32) ([]uint32, []int32)
	}{
		{"first arc without the bit", func(s []uint32, b []int32) ([]uint32, []int32) {
			s[b[multi]] &^= FirstArc
			return s, b
		}},
		{"later arc with the bit", func(s []uint32, b []int32) ([]uint32, []int32) {
			s[b[multi]+2] |= FirstArc
			return s, b
		}},
		{"masked tail >= n", func(s []uint32, b []int32) ([]uint32, []int32) {
			s[b[multi]+2] = n
			return s, b
		}},
		{"odd block", func(s []uint32, b []int32) ([]uint32, []int32) {
			b[multi+1]--
			return s, b
		}},
		{"empty block", func(s []uint32, b []int32) ([]uint32, []int32) {
			b[multi+1] = b[multi]
			return s, b
		}},
		{"block start disagreeing with the bits", func(s []uint32, b []int32) ([]uint32, []int32) {
			b[multi+1] -= 2
			return s, b
		}},
		{"odd stream", func(s []uint32, b []int32) ([]uint32, []int32) {
			b[n]--
			return s[:len(s)-1], b
		}},
		{"finite self-loop", func(s []uint32, b []int32) ([]uint32, []int32) {
			s[b[multi]] = uint32(ord[multi]) | FirstArc
			return s, b
		}},
		{"block index not starting at 0", func(s []uint32, b []int32) ([]uint32, []int32) {
			b[0] = 2
			return s, b
		}},
	} {
		stream := slices.Clone(p.Stream())
		starts := slices.Clone(p.BlockStarts())
		stream, starts = c.forge(stream, starts)
		if _, err := PackedFromParts(stream, starts, ord, n, g.NumArcs()); err == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
	if _, err := PackedFromParts(p.Stream(), p.BlockStarts(), ord, n, g.NumArcs()+1); err == nil {
		t.Error("wrong arc count accepted")
	}
	if _, err := PackedFromParts(p.Stream(), p.BlockStarts(), ord[:n-1], n, g.NumArcs()); err == nil {
		t.Error("short order accepted")
	}
}

// FuzzPackedRoundTrip encodes a random reverse-topological graph into
// the packed stream and checks that Unpack recovers the graph under the
// sweep order, that PackedFromParts accepts the parts, and that
// WithWeights under a second metric yields the
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
		ug, err := p.Unpack(ord)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !ug.Equal(g) {
			t.Fatal("round trip changed the graph")
		}
		if _, err := PackedFromParts(p.Stream(), p.BlockStarts(), ord, n, g.NumArcs()); err != nil {
			t.Fatalf("parts of a fresh encode rejected: %v", err)
		}
		weights := make([]uint32, g.NumArcs())
		for i := range weights {
			weights[i] = rng.Uint32()
		}
		g2, err := g.WithWeights(weights)
		if err != nil {
			t.Fatal(err)
		}
		patched, err := p.WithWeights(g2, ord)
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
