package snapshot

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
	"phast/internal/roadnet"
)

// fixture builds a small road network and its hierarchy once per test.
func fixture(t testing.TB) (*graph.Graph, *ch.Hierarchy) {
	t.Helper()
	net, err := roadnet.Generate(roadnet.Params{Width: 28, Height: 24, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	h := ch.Build(net.Graph, ch.Options{Workers: 1})
	return net.Graph, h
}

// engineConfigs enumerates every sweep mode the snapshot must
// round-trip byte-identically.
func engineConfigs() []struct {
	name string
	opt  core.Options
} {
	return []struct {
		name string
		opt  core.Options
	}{
		{"reordered/packed", core.Options{Mode: core.SweepReordered}},
		{"levelorder/packed", core.Options{Mode: core.SweepLevelOrder}},
		{"rankorder/packed", core.Options{Mode: core.SweepRankOrder}},
	}
}

// checkIdentical compares single-tree and multi-tree (k ∈ {1,4,16})
// labels of the two engines over every vertex, requiring byte equality.
func checkIdentical(t *testing.T, n int, src, got *core.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	a := make([]uint32, n)
	b := make([]uint32, n)
	for trial := 0; trial < 4; trial++ {
		s := int32(rng.Intn(n))
		src.Tree(s)
		got.Tree(s)
		src.CopyDistances(a)
		got.CopyDistances(b)
		if !bytes.Equal(bytesOfUint32s(a), bytesOfUint32s(b)) {
			t.Fatalf("single-tree labels differ from source %d", s)
		}
	}
	for _, k := range []int{1, 4, 16} {
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
		}
		src.MultiTree(sources, false)
		got.MultiTree(sources, false)
		for i := 0; i < k; i++ {
			src.CopyLaneDistances(i, a)
			got.CopyLaneDistances(i, b)
			if !bytes.Equal(bytesOfUint32s(a), bytesOfUint32s(b)) {
				t.Fatalf("k=%d lane %d labels differ", k, i)
			}
		}
	}
}

func TestRoundTripAllModes(t *testing.T) {
	g, h := fixture(t)
	n := g.NumVertices()
	for _, cfg := range engineConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			opt := cfg.opt
			opt.Workers = 1
			eng, err := core.NewEngine(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			size, err := Write(&buf, eng.Parts(), g)
			if err != nil {
				t.Fatal(err)
			}
			if size != int64(buf.Len()) {
				t.Fatalf("Write reported %d bytes, wrote %d", size, buf.Len())
			}

			// Heap reader.
			snap, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Size != size {
				t.Fatalf("snapshot size %d, want %d", snap.Size, size)
			}
			if !snap.Orig.Equal(g) {
				t.Fatal("original graph did not round-trip")
			}
			loaded, err := core.NewEngineFromParts(snap.Parts, 1, core.SnapshotInfo{Bytes: snap.Size, Hold: snap.Hold})
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, n, eng, loaded)

			// mmap loader.
			path := filepath.Join(t.TempDir(), "engine.snap")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			msnap, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			mloaded, err := core.NewEngineFromParts(msnap.Parts, 1, core.SnapshotInfo{Bytes: msnap.Size, Hold: msnap.Hold})
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, n, eng, mloaded)
		})
	}
}

// TestLoadAliasesMapping is the zero-copy acceptance test: every large
// array of a loaded snapshot must point into the mapped region, not at
// a heap copy.
func TestLoadAliasesMapping(t *testing.T) {
	g, h := fixture(t)
	eng, err := core.NewEngine(h, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, eng.Parts(), g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := snap.Hold.(*mapping)
	if !ok {
		t.Fatalf("snapshot hold is %T, want *mapping", snap.Hold)
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(m.bytes())))
	end := base + uintptr(len(m.bytes()))
	inRegion := func(what string, ptr unsafe.Pointer, size uintptr) {
		t.Helper()
		p := uintptr(ptr)
		if size == 0 {
			return
		}
		if p < base || p+size > end {
			t.Errorf("%s at %#x (+%d) escapes the mapping [%#x,%#x): copied, not aliased", what, p, size, base, end)
		}
	}
	p := snap.Parts
	hh := p.H
	inRegion("hierarchy first", unsafe.Pointer(unsafe.SliceData(hh.G.FirstOut())), uintptr(len(hh.G.FirstOut()))*4)
	inRegion("hierarchy arcs", unsafe.Pointer(unsafe.SliceData(hh.G.ArcList())), uintptr(len(hh.G.ArcList()))*8)
	inRegion("rank", unsafe.Pointer(unsafe.SliceData(hh.Rank)), uintptr(len(hh.Rank))*4)
	inRegion("level", unsafe.Pointer(unsafe.SliceData(hh.Level)), uintptr(len(hh.Level))*4)
	inRegion("up arcs", unsafe.Pointer(unsafe.SliceData(hh.Up.ArcList())), uintptr(len(hh.Up.ArcList()))*8)
	inRegion("down-in arcs", unsafe.Pointer(unsafe.SliceData(hh.DownIn.ArcList())), uintptr(len(hh.DownIn.ArcList()))*8)
	inRegion("up mids", unsafe.Pointer(unsafe.SliceData(hh.UpMid)), uintptr(len(hh.UpMid))*4)
	inRegion("toEngine", unsafe.Pointer(unsafe.SliceData(p.ToEngine)), uintptr(len(p.ToEngine))*4)
	inRegion("toOrig", unsafe.Pointer(unsafe.SliceData(p.ToOrig)), uintptr(len(p.ToOrig))*4)
	inRegion("level ranges", unsafe.Pointer(unsafe.SliceData(p.LevelRanges)), uintptr(len(p.LevelRanges))*8)
	inRegion("packed stream", unsafe.Pointer(unsafe.SliceData(p.Packed.Stream())), uintptr(len(p.Packed.Stream()))*4)
	inRegion("packed blocks", unsafe.Pointer(unsafe.SliceData(p.Packed.BlockStarts())), uintptr(len(p.Packed.BlockStarts()))*4)
	inRegion("chunk starts", unsafe.Pointer(unsafe.SliceData(p.ChunkStart)), uintptr(len(p.ChunkStart))*4)
	inRegion("chunk deps", unsafe.Pointer(unsafe.SliceData(p.ChunkDep)), uintptr(len(p.ChunkDep))*4)
	inRegion("orig first", unsafe.Pointer(unsafe.SliceData(snap.Orig.FirstOut())), uintptr(len(snap.Orig.FirstOut()))*4)
	inRegion("orig arcs", unsafe.Pointer(unsafe.SliceData(snap.Orig.ArcList())), uintptr(len(snap.Orig.ArcList()))*8)
}

// TestMetricIdentityRoundTrips checks the v2 hierarchy semantics carry
// through the snapshot: epoch and name survive.
func TestMetricIdentityRoundTrips(t *testing.T) {
	g, h := fixture(t)
	h.MetricEpoch = 42
	h.MetricName = "truck"
	eng, err := core.NewEngine(h, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, eng.Parts(), g); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Parts.H.MetricEpoch != 42 || snap.Parts.H.MetricName != "truck" {
		t.Fatalf("metric identity lost: epoch=%d name=%q", snap.Parts.H.MetricEpoch, snap.Parts.H.MetricName)
	}
}

// TestRejectsForgery hand-forges the headers a hostile or corrupt file
// could present; every one must fail cleanly, never panic or alias.
func TestRejectsForgery(t *testing.T) {
	g, h := fixture(t)
	eng, err := core.NewEngine(h, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, eng.Parts(), g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	put64 := func(b []byte, off int64, v uint64) {
		for i := 0; i < 8; i++ {
			b[off+int64(i)] = byte(v >> (8 * i))
		}
	}
	forge := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = mutate(b)
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: forged snapshot accepted", name)
		}
	}
	forge("bad magic", func(b []byte) []byte { put64(b, 0, 0xdead); return b })
	forge("bad version", func(b []byte) []byte { put64(b, 8, 99); return b })
	forge("wrong file size", func(b []byte) []byte { put64(b, 16, uint64(len(b))+8); return b })
	forge("unknown flags", func(b []byte) []byte { put64(b, 24, 1<<40); return b })
	forge("huge n", func(b []byte) []byte { put64(b, 32, 1<<40); return b })
	forge("huge name", func(b []byte) []byte { put64(b, 64, 1<<20); return b })
	forge("wrong section count", func(b []byte) []byte { put64(b, 72, 7); return b })
	forge("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	forge("misaligned section", func(b []byte) []byte {
		off := int64(headerWords * 8)
		off += 0 // name is empty in the fixture
		put64(b, off, u64at(b, off)+4)
		return b
	})
	forge("section escapes file", func(b []byte) []byte {
		off := int64(headerWords * 8)
		put64(b, off+8, uint64(len(b)))
		return b
	})
	forge("overlapping sections", func(b []byte) []byte {
		// Point section 1 at section 0's offset.
		off := int64(headerWords * 8)
		put64(b, off+16, u64at(b, off))
		return b
	})

	// Version 1 files (two stream slots), version 1's stream-kind flag
	// bits 3 and 4, and the retired fork-join flag bit 5 are refused
	// for that reason and no other.
	refused := func(name, want string, mutate func(b []byte)) {
		b := append([]byte(nil), good...)
		mutate(b)
		if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, want)
		}
	}
	refused("v1 version word", "unsupported version 1", func(b []byte) { put64(b, 8, 1) })
	refused("v2 version word", "unsupported version 2", func(b []byte) { put64(b, 8, 2) })
	refused("v2 with flag bit 3", "unknown flag bits 0x8", func(b []byte) { put64(b, 24, u64at(b, 24)|1<<3) })
	refused("v2 with flag bit 4", "unknown flag bits 0x10", func(b []byte) { put64(b, 24, u64at(b, 24)|1<<4) })
	refused("v2 with flag bit 5", "unknown flag bits 0x20", func(b []byte) { put64(b, 24, u64at(b, 24)|1<<5) })
}

// streamOffset returns the file offset of the sweep stream section of
// the snapshot b.
func streamOffset(b []byte) int64 {
	return int64(u64at(b, headerWords*8+secPackedStream*16))
}

// TestRejectsFlippedFirstArcBit flips bit 31 of tail words in a saved
// file — clearing it on a block's first arc, setting it on a later one —
// and checks that both Read and Load refuse the file with a grammar
// error instead of handing the kernels a stream whose position counter
// would run off its chunk.
func TestRejectsFlippedFirstArcBit(t *testing.T) {
	g, h := fixture(t)
	eng, err := core.NewEngine(h, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, eng.Parts(), g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	bs := eng.Packed().BlockStarts()
	later := -1 // the word index of some block's second tail word
	for p := 0; p+1 < len(bs) && later < 0; p++ {
		if bs[p+1]-bs[p] >= 4 {
			later = int(bs[p]) + 2
		}
	}
	if later < 0 {
		t.Fatal("fixture has no block with two arcs")
	}
	dir := t.TempDir()
	for _, word := range []int{0, later} {
		b := append([]byte(nil), good...)
		b[streamOffset(b)+int64(word)*4+3] ^= 0x80 // bit 31, little-endian
		if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "first-arc bit") {
			t.Errorf("Read of word %d flipped: got %v, want a first-arc bit error", word, err)
		}
		path := filepath.Join(dir, "flipped.snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "first-arc bit") {
			t.Errorf("Load of word %d flipped: got %v, want a first-arc bit error", word, err)
		}
	}
}

// FuzzSnapshotRoundTrip mutates a valid snapshot (plus arbitrary
// truncations): an offset inside the header and section table
// overwrites 8 bytes there, an offset past it XORs val into the
// sections (the sweep stream among them). The reader must either reject
// the forgery or produce an engine that passes parts validation — it
// must never panic or index out of range.
func FuzzSnapshotRoundTrip(f *testing.F) {
	net, err := roadnet.Generate(roadnet.Params{Width: 10, Height: 8, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	h := ch.Build(net.Graph, ch.Options{Workers: 1})
	eng, err := core.NewEngine(h, core.Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, eng.Parts(), net.Graph); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(int64(0), uint64(0), 0)
	f.Add(int64(16), uint64(1<<60), len(good))
	f.Add(int64(headerWords*8+8), uint64(3), len(good)/2)
	f.Add(streamOffset(good), uint64(graph.FirstArc), len(good)) // clears block 0's first-arc bit
	f.Fuzz(func(t *testing.T, off int64, val uint64, cut int) {
		b := append([]byte(nil), good...)
		if cut >= 0 && cut < len(b) {
			b = b[:cut]
		}
		region := int64(headerWords*8 + numSections*16)
		if off >= 0 && off+8 <= int64(len(b)) {
			for i := 0; i < 8; i++ {
				if off+8 <= region {
					b[off+int64(i)] = byte(val >> (8 * i))
				} else {
					b[off+int64(i)] ^= byte(val >> (8 * i))
				}
			}
		}
		snap, err := Read(bytes.NewReader(b))
		if err != nil {
			return
		}
		// Accepted: the parts must also survive engine assembly (or be
		// rejected there) without panicking.
		if _, err := core.NewEngineFromParts(snap.Parts, 1, core.SnapshotInfo{}); err != nil {
			return
		}
	})
}
