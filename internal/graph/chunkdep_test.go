package graph

import (
	"math/rand"
	"testing"
)

// randomSweepDAG builds an incoming-arc downward graph consistent with
// the given sweep order: every arc of the vertex scanned at position p
// has its head (the dependency tail) at a strictly earlier position.
func randomSweepDAG(rng *rand.Rand, order []int32, m int) *Graph {
	n := len(order)
	b := NewBuilder(n)
	if n < 2 {
		return b.Build()
	}
	for i := 0; i < m; i++ {
		p := 1 + rng.Intn(n-1)
		tp := rng.Intn(p)
		b.MustAddArc(order[p], order[tp], uint32(rng.Intn(100)))
	}
	return b.Build()
}

// bruteChunkDeps recomputes the bounds straight from the definition:
// for each chunk, the maximum tail position among arcs entering it from
// before the chunk start, else -1.
func bruteChunkDeps(g *Graph, order []int32, grain int) []int32 {
	n := g.NumVertices()
	pos := make([]int32, n)
	for p, v := range order {
		pos[v] = int32(p)
	}
	dep := make([]int32, (n+grain-1)/grain)
	for c := range dep {
		dep[c] = -1
		start := c * grain
		end := start + grain
		if end > n {
			end = n
		}
		for p := start; p < end; p++ {
			for _, a := range g.Arcs(order[p]) {
				if tp := pos[a.Head]; int(tp) < start && tp > dep[c] {
					dep[c] = tp
				}
			}
		}
	}
	return dep
}

func identityOrder(n int) []int32 {
	o := make([]int32, n)
	for i := range o {
		o[i] = int32(i)
	}
	return o
}

func TestChunkDepBoundsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(90)
		identity := trial%2 == 0
		order := identityOrder(n)
		if !identity {
			order = randomPerm(rng, n)
		}
		g := randomSweepDAG(rng, order, rng.Intn(5*n))
		for _, grain := range []int{1, 3, 7, 16, n, 2 * n} {
			var arg []int32
			if !identity {
				arg = order
			}
			got, err := ChunkDepBounds(g, arg, grain)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteChunkDeps(g, order, grain)
			if len(got) != len(want) {
				t.Fatalf("n=%d grain=%d: %d chunks, want %d", n, grain, len(got), len(want))
			}
			for c := range got {
				if got[c] != want[c] {
					t.Fatalf("n=%d grain=%d identity=%v: dep[%d]=%d, want %d",
						n, grain, identity, c, got[c], want[c])
				}
				if got[c] >= int32(c*grain) {
					t.Fatalf("dep[%d]=%d not before chunk start %d", c, got[c], c*grain)
				}
			}
		}
	}
}

// TestChunkDepBoundsPackedAgrees checks the stream flavor walks its way
// to the same bounds as the CSR flavor, for explicit sweep orders and
// the identity layout.
func TestChunkDepBoundsPackedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(90)
		identity := trial%2 == 0
		order := identityOrder(n)
		if !identity {
			order = randomPerm(rng, n)
		}
		g := randomSweepDAG(rng, order, rng.Intn(5*n))
		var orderArg, pos []int32
		if !identity {
			orderArg = order
			pos = make([]int32, n)
			for p, v := range order {
				pos[v] = int32(p)
			}
		}
		p, err := NewPacked(g, orderArg)
		if err != nil {
			t.Fatal(err)
		}
		for _, grain := range []int{1, 5, 16, n} {
			fromCSR, err := ChunkDepBounds(g, orderArg, grain)
			if err != nil {
				t.Fatal(err)
			}
			fromStream, err := p.ChunkDepBoundsAt(pos, UniformChunkStarts(n, grain))
			if err != nil {
				t.Fatal(err)
			}
			if len(fromCSR) != len(fromStream) {
				t.Fatalf("chunk counts differ: %d vs %d", len(fromCSR), len(fromStream))
			}
			for c := range fromCSR {
				if fromCSR[c] != fromStream[c] {
					t.Fatalf("n=%d grain=%d identity=%v: CSR dep[%d]=%d, stream %d",
						n, grain, identity, c, fromCSR[c], fromStream[c])
				}
			}
		}
	}
}

func TestChunkDepBoundsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	order := randomPerm(rng, 10)
	g := randomSweepDAG(rng, order, 30)

	if _, err := ChunkDepBounds(g, order, 0); err == nil {
		t.Error("grain 0 accepted")
	}
	if _, err := ChunkDepBounds(g, order[:5], 4); err == nil {
		t.Error("short order accepted")
	}
	bad := append([]int32(nil), order...)
	bad[3] = 99
	if _, err := ChunkDepBounds(g, bad, 4); err == nil {
		t.Error("out-of-range order vertex accepted")
	}

	// A forward arc breaks the reverse-topological property.
	b := NewBuilder(4)
	b.MustAddArc(1, 2, 5)
	fwd := b.Build()
	if _, err := ChunkDepBounds(fwd, nil, 2); err == nil {
		t.Error("non-topological identity graph accepted")
	}
	pf, err := NewPacked(fwd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.ChunkDepBoundsAt(nil, UniformChunkStarts(4, 2)); err == nil {
		t.Error("non-topological packed stream accepted")
	}

	// Packed flavor: the position map must cover every vertex, and a
	// stream read with the wrong map shows forward arcs.
	p, err := NewPacked(g, order)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ChunkDepBoundsAt(make([]int32, 5), UniformChunkStarts(10, 4)); err == nil {
		t.Error("short position map accepted")
	}
	if _, err := p.ChunkDepBoundsAt(make([]int32, 10), []int32{0, 4, 4, 10}); err == nil {
		t.Error("packed chunk starts with an empty chunk accepted")
	}
	rev := make([]int32, 10) // the reverse of the sweep order's positions
	for q, v := range order {
		rev[v] = int32(9 - q)
	}
	if _, err := p.ChunkDepBoundsAt(rev, UniformChunkStarts(10, 4)); err == nil {
		t.Error("stream read under the reversed order accepted")
	}
}

func TestUniformChunkStartsMatchesFixedGrain(t *testing.T) {
	// The variable-boundary representation of a fixed grain must
	// reproduce ChunkDepBounds exactly.
	rng := rand.New(rand.NewSource(19))
	g := randomTopoGraph(rng, 300, 1200, nil)
	for _, grain := range []int{1, 7, 64, 1024} {
		want, err := ChunkDepBounds(g, nil, grain)
		if err != nil {
			t.Fatal(err)
		}
		starts := UniformChunkStarts(300, grain)
		if int(starts[len(starts)-1]) != 300 || len(starts)-1 != len(want) {
			t.Fatalf("grain %d: %d chunks, want %d", grain, len(starts)-1, len(want))
		}
		got, err := ChunkDepBoundsAt(g, nil, starts)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("grain %d chunk %d: dep %d, want %d", grain, c, got[c], want[c])
			}
		}
	}
}

// TestPackedChunkStartsByBytes checks the byte-budget chunking the
// engine sizes its default schedule with: every chunk of more than one
// position spans at most the budget in stream bytes, and an unbounded
// budget yields one chunk.
func TestPackedChunkStartsByBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomTopoGraph(rng, 500, 2000, nil)
	p, err := NewPacked(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 64, 256, 4096, 1 << 20} {
		starts := p.ChunkStartsByBytes(budget)
		if err := ValidChunkStarts(starts, p.NumVertices()); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		bs := p.BlockStarts()
		for c := 0; c+1 < len(starts); c++ {
			span := 4 * int(bs[starts[c+1]]-bs[starts[c]])
			if span > budget && starts[c+1]-starts[c] > 1 {
				t.Fatalf("budget %d: chunk %d spans %d bytes over %d positions", budget, c, span, starts[c+1]-starts[c])
			}
		}
	}
	if starts := p.ChunkStartsByBytes(1 << 30); len(starts) != 2 {
		t.Fatalf("unbounded budget produced %d chunks", len(starts)-1)
	}
}

// TestPackedChunkDepBoundsAtMatchesCSR checks the engine's flavor of
// the dependency bounds (packed stream, variable chunk boundaries)
// against the CSR oracle, for the identity layout and for explicit
// sweep orders, under uniform, byte-budget and degenerate boundaries.
func TestPackedChunkDepBoundsAtMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, explicit := range []bool{false, true} {
		n := 200
		var ord, pos []int32
		if explicit {
			ord = randomPerm(rng, n)
			pos = make([]int32, n)
			for p, v := range ord {
				pos[v] = int32(p)
			}
		}
		g := randomTopoGraph(rng, n, 800, ord)
		pk, err := NewPacked(g, ord)
		if err != nil {
			t.Fatal(err)
		}
		for _, starts := range [][]int32{
			UniformChunkStarts(n, 32),
			UniformChunkStarts(n, 7),
			pk.ChunkStartsByBytes(300),
			{0, 1, int32(n)},
		} {
			want, err := ChunkDepBoundsAt(g, ord, starts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pk.ChunkDepBoundsAt(pos, starts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("explicit=%v: %d chunks, want %d", explicit, len(got), len(want))
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("explicit=%v chunk %d: dep %d, want %d", explicit, c, got[c], want[c])
				}
			}
		}
	}
}
