// Package snapshot defines the versioned binary format for a complete
// PHAST engine — the CH hierarchy (v2 semantics: metric identity
// included), the original graph, the arc-major sweep stream,
// the chunk schedule with its precomputed dependency bounds, and the
// vertex orders and level ranges — laid out so a reader aliases every
// large array directly out of an mmap'd file with zero copies.
//
// # Format
//
// All integers are little-endian. The file is:
//
//	header      10 × uint64: magic, version, file size, flags, n,
//	            shortcuts, max level, metric epoch, metric name length,
//	            section count
//	name        metric name bytes, zero-padded to a multiple of 8
//	table       sectionCount × (offset uint64, byteLen uint64)
//	sections    each starting at an 8-byte-aligned offset, in table
//	            order, ascending, with zero padding between
//
// Every array section stores its elements verbatim in engine memory
// layout — []int32, []graph.Arc (8 bytes: head int32 + weight uint32),
// []uint32 or [][2]int32 (level ranges). The sweep stream is stored in
// the grammar the kernels read (graph.Packed: (tail | first-arc bit,
// weight) word pairs in sweep order, with an int32 block index), so a
// loaded stream is validated but never converted.
// Because each section offset is 8-byte aligned and the element types
// have no padding, a reader on a little-endian 64-bit platform
// reconstructs each array with one unsafe.Slice over the mapped region:
// zero large-array copies, N processes sharing one page-cache copy of
// the file.
//
// # Hardening
//
// The reader trusts nothing: magic/version/size, the section table
// (alignment, bounds, ordering, exact lengths against n and the arc
// counts), permutations, mid ranges, the full sweep stream grammar,
// and the chunk schedule are all validated before an engine is
// assembled — the same discipline as ch.ReadHierarchy, extended to the
// aliasing layout (FuzzSnapshotRoundTrip forges headers, lengths, and
// alignments against it). Validation reads every section once but
// copies none of them.
//
// # Read-only aliasing convention
//
// A loaded snapshot's arrays alias pages mapped PROT_READ and shared by
// every process serving the same file: a write through them is a
// SIGSEGV at best and cross-process corruption at worst (a private COW
// mapping would silently fork the page). Accessors returning views of
// mapped data are annotated //phast:readonly, and phastlint's
// snapshotalias analyzer flags writes through slices derived from them.
package snapshot

import (
	"fmt"
	"io"
	"strconv"
	"unsafe"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
)

const (
	// Magic spells "PHASTSNP" as a little-endian uint64.
	Magic uint64 = 0x504e535453414850
	// Version of the format this package writes. Version 3 stores the
	// arc-major sweep stream with an int32 block index; version 2 files
	// (degree and vertex words, int64 block index) and version 1 files
	// (a second stream slot) are rejected.
	Version = 3

	headerWords = 10
	maxNameLen  = 1 << 10
	// maxDim bounds every count read from the header or derived from a
	// section length before it is used in arithmetic, so forged values
	// cannot overflow offsets or size allocations.
	maxDim = 1 << 31
)

// Section indices of format version 3. The table length is fixed:
// absent arrays (identity order) are zero-length sections, not missing
// ones.
const (
	secHGFirst = iota
	secHGArcs
	secRank
	secLevel
	secUpFirst
	secUpArcs
	secUpMid
	secDownFirst
	secDownArcs
	secDownMid
	secDownInFirst
	secDownInArcs
	secDownInMid
	secToEngine
	secToOrig
	secOrder
	secPos
	secLevelRanges
	secPackedStream
	secPackedBlocks
	secChunkStart
	secChunkDep
	secOrigFirst
	secOrigArcs
	numSections
)

// Header flag bits: the sweep mode and whether the file carries an
// explicit sweep order (every mode but the reordered one). Bits 3 and 4
// named the sweep stream kind in version 1, and bit 5 selected the
// retired fork-join sweep; all three are undefined now.
const (
	flagModeMask      = 0b11 // core.SweepMode
	flagExplicitOrder = 1 << 2
	flagsKnown        = flagModeMask | flagExplicitOrder
)

// hostIsAliasable reports whether this platform can alias the on-disk
// layout directly: little-endian with 64-bit ints (section offsets and
// lengths are 64-bit and handled as int).
func hostIsAliasable() bool {
	probe := uint16(1)
	return *(*byte)(unsafe.Pointer(&probe)) == 1 && strconv.IntSize == 64
}

// align8 rounds up to the next multiple of 8.
func align8(x int64) int64 { return (x + 7) &^ 7 }

// bytesOfInt32s views an []int32 as raw bytes without copying.
func bytesOfInt32s(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// bytesOfUint32s views a []uint32 as raw bytes without copying.
func bytesOfUint32s(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// bytesOfArcs views an arc list as raw bytes without copying. graph.Arc
// is int32+uint32 with no padding, so the in-memory layout is already
// the on-disk layout.
func bytesOfArcs(s []graph.Arc) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// bytesOfRanges views a [][2]int32 as raw bytes without copying.
func bytesOfRanges(s [][2]int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// Write serializes the engine parts plus the original (unpermuted)
// graph in snapshot format and returns the total byte count. The writer
// streams sections in order with alignment padding; nothing is staged
// in memory beyond the header and table.
func Write(w io.Writer, p core.EngineParts, orig *graph.Graph) (int64, error) {
	if !hostIsAliasable() {
		return 0, fmt.Errorf("snapshot: writing requires a little-endian 64-bit platform")
	}
	if p.H == nil || p.H.G == nil || p.Packed == nil || orig == nil {
		return 0, fmt.Errorf("snapshot: incomplete engine parts")
	}
	h := p.H
	if len(h.MetricName) > maxNameLen {
		return 0, fmt.Errorf("snapshot: metric name of %d bytes exceeds %d", len(h.MetricName), maxNameLen)
	}

	sections := make([][]byte, numSections)
	sections[secHGFirst] = bytesOfInt32s(h.G.FirstOut())
	sections[secHGArcs] = bytesOfArcs(h.G.ArcList())
	sections[secRank] = bytesOfInt32s(h.Rank)
	sections[secLevel] = bytesOfInt32s(h.Level)
	sections[secUpFirst] = bytesOfInt32s(h.Up.FirstOut())
	sections[secUpArcs] = bytesOfArcs(h.Up.ArcList())
	sections[secUpMid] = bytesOfInt32s(h.UpMid)
	sections[secDownFirst] = bytesOfInt32s(h.Down.FirstOut())
	sections[secDownArcs] = bytesOfArcs(h.Down.ArcList())
	sections[secDownMid] = bytesOfInt32s(h.DownMid)
	sections[secDownInFirst] = bytesOfInt32s(h.DownIn.FirstOut())
	sections[secDownInArcs] = bytesOfArcs(h.DownIn.ArcList())
	sections[secDownInMid] = bytesOfInt32s(h.DownInMid)
	sections[secToEngine] = bytesOfInt32s(p.ToEngine)
	sections[secToOrig] = bytesOfInt32s(p.ToOrig)
	sections[secOrder] = bytesOfInt32s(p.Order)
	sections[secPos] = bytesOfInt32s(p.Pos)
	sections[secLevelRanges] = bytesOfRanges(p.LevelRanges)
	sections[secPackedStream] = bytesOfUint32s(p.Packed.Stream())
	sections[secPackedBlocks] = bytesOfInt32s(p.Packed.BlockStarts())
	sections[secChunkStart] = bytesOfInt32s(p.ChunkStart)
	sections[secChunkDep] = bytesOfInt32s(p.ChunkDep)
	sections[secOrigFirst] = bytesOfInt32s(orig.FirstOut())
	sections[secOrigArcs] = bytesOfArcs(orig.ArcList())

	flags := uint64(p.Mode) & flagModeMask
	if p.Order != nil {
		flags |= flagExplicitOrder
	}

	nameLen := int64(len(h.MetricName))
	tableOff := headerWords*8 + align8(nameLen)
	off := tableOff + numSections*16
	table := make([]uint64, 2*numSections)
	for i, sec := range sections {
		off = align8(off)
		table[2*i] = uint64(off)
		table[2*i+1] = uint64(len(sec))
		off += int64(len(sec))
	}
	fileSize := align8(off)

	header := [headerWords]uint64{
		Magic,
		Version,
		uint64(fileSize),
		flags,
		uint64(h.G.NumVertices()),
		uint64(h.NumShortcuts),
		uint64(h.MaxLevel),
		uint64(h.MetricEpoch),
		uint64(nameLen),
		numSections,
	}

	cw := &countingWriter{w: w}
	writeU64s := func(vals []uint64) error {
		var buf [8]byte
		for _, v := range vals {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			if _, err := cw.Write(buf[:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeU64s(header[:]); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write([]byte(h.MetricName)); err != nil {
		return cw.n, err
	}
	if err := cw.pad(align8(nameLen) - nameLen); err != nil {
		return cw.n, err
	}
	if err := writeU64s(table); err != nil {
		return cw.n, err
	}
	for i, sec := range sections {
		if err := cw.pad(int64(table[2*i]) - cw.n); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write(sec); err != nil {
			return cw.n, err
		}
	}
	if err := cw.pad(fileSize - cw.n); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// countingWriter tracks the byte offset so section padding can be
// emitted exactly.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

var zeros [8]byte

func (c *countingWriter) pad(k int64) error {
	if k < 0 {
		return fmt.Errorf("snapshot: internal layout error (negative pad %d)", k)
	}
	for k > 0 {
		step := k
		if step > 8 {
			step = 8
		}
		if _, err := c.Write(zeros[:step]); err != nil {
			return err
		}
		k -= step
	}
	return nil
}

// Snapshot is a decoded snapshot: engine parts and the original graph,
// every array aliasing the backing region (an mmap'd file for Load, an
// aligned heap buffer for Read). The hold reference must stay reachable
// for as long as the arrays are used; core.NewEngineFromParts keeps it
// on the engine's shared state.
type Snapshot struct {
	Parts core.EngineParts
	Orig  *graph.Graph
	// Size is the file size in bytes — the resident footprint every
	// process mapping the same file shares.
	Size int64
	// Mapped reports whether the backing region is an mmap (true for
	// Load on unix hosts) or a private heap buffer (Read, non-unix).
	Mapped bool
	// Hold pins the backing region; pass it to core.NewEngineFromParts.
	Hold any
}

// Load maps the snapshot file and decodes it in place: on unix hosts
// the returned arrays alias the PROT_READ shared mapping (one physical
// copy across all processes serving the file); elsewhere the file is
// read into an aligned buffer first. The mapping stays alive while the
// returned snapshot (or an engine built from it) is reachable and is
// unmapped by its finalizer afterwards.
func Load(path string) (*Snapshot, error) {
	m, mapped, err := openMapping(path)
	if err != nil {
		return nil, err
	}
	s, err := FromBytes(m.bytes())
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	s.Mapped = mapped
	s.Hold = m
	return s, nil
}

// Read decodes a snapshot from a stream into an 8-byte-aligned heap
// buffer — the fallback for non-mmap platforms and round-trip tests.
// The decode path is identical to Load's: the arrays alias the buffer,
// so relative to it there are still zero copies.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := readAligned(r)
	if err != nil {
		return nil, err
	}
	s, err := FromBytes(data)
	if err != nil {
		return nil, err
	}
	s.Hold = data
	return s, nil
}

// readAligned slurps r into a buffer whose base is 8-byte aligned (it
// is backed by a []uint64), so FromBytes can alias typed slices out of
// it exactly as it does over a page-aligned mapping. The incremental
// read never sizes an allocation from file contents — the same
// discipline as ch.readInt32s.
func readAligned(r io.Reader) ([]byte, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("snapshot: empty input")
	}
	words := make([]uint64, (len(raw)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	copy(buf, raw)
	return buf[:len(raw)], nil
}

// u64at reads the little-endian uint64 at data[off:].
func u64at(data []byte, off int64) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(data[off+int64(i)]) << (8 * i)
	}
	return v
}

// section is one validated table entry.
type section struct {
	off, len int64
}

// FromBytes decodes a snapshot whose backing bytes start at an
// 8-byte-aligned address, aliasing every array out of data without
// copying. It performs the full hardening pass: header, section table,
// permutations, CSR shapes, mid ranges, stream grammars, and chunk
// schedule are validated before anything is returned.
func FromBytes(data []byte) (*Snapshot, error) {
	if !hostIsAliasable() {
		return nil, fmt.Errorf("snapshot: aliasing requires a little-endian 64-bit platform")
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 != 0 {
		return nil, fmt.Errorf("snapshot: backing buffer is not 8-byte aligned")
	}
	if int64(len(data)) < headerWords*8 {
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than the header", len(data))
	}
	if got := u64at(data, 0); got != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %#x", got)
	}
	if v := u64at(data, 8); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d", v)
	}
	fileSize := u64at(data, 16)
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("snapshot: header says %d bytes, file has %d", fileSize, len(data))
	}
	flags := u64at(data, 24)
	if flags&^uint64(flagsKnown) != 0 {
		return nil, fmt.Errorf("snapshot: unknown flag bits %#x", flags&^uint64(flagsKnown))
	}
	n64 := u64at(data, 32)
	shortcuts := u64at(data, 40)
	maxLevel := u64at(data, 48)
	metricEpoch := int64(u64at(data, 56))
	nameLen := u64at(data, 64)
	secCount := u64at(data, 72)
	if n64 >= maxDim || shortcuts >= maxDim || maxLevel >= maxDim {
		return nil, fmt.Errorf("snapshot: header dimension out of range")
	}
	n := int(n64)
	if maxLevel > 0 && int64(maxLevel) >= int64(n) {
		return nil, fmt.Errorf("snapshot: max level %d with %d vertices", maxLevel, n)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("snapshot: metric name of %d bytes exceeds %d", nameLen, maxNameLen)
	}
	if secCount != numSections {
		return nil, fmt.Errorf("snapshot: %d sections, version %d has %d", secCount, Version, numSections)
	}
	nameOff := int64(headerWords * 8)
	nameEnd := nameOff + int64(nameLen) // nameLen ≤ maxNameLen, checked above
	tableOff := nameOff + align8(int64(nameLen))
	secBase := tableOff + numSections*16
	if secBase > int64(len(data)) {
		return nil, fmt.Errorf("snapshot: truncated section table")
	}
	name := string(data[nameOff:nameEnd])

	var secs [numSections]section
	prevEnd := secBase
	for i := range secs {
		off := u64at(data, tableOff+int64(i)*16)
		ln := u64at(data, tableOff+int64(i)*16+8)
		if off%8 != 0 {
			return nil, fmt.Errorf("snapshot: section %d offset %d is not 8-byte aligned", i, off)
		}
		if off > uint64(len(data)) || ln > uint64(len(data))-off {
			return nil, fmt.Errorf("snapshot: section %d [%d,+%d) escapes the file", i, off, ln)
		}
		if int64(off) < prevEnd {
			return nil, fmt.Errorf("snapshot: section %d at %d overlaps the previous end %d", i, off, prevEnd)
		}
		secs[i] = section{off: int64(off), len: int64(ln)}
		prevEnd = int64(off) + int64(ln)
	}

	mode := core.SweepMode(flags & flagModeMask)
	explicit := flags&flagExplicitOrder != 0
	if mode == core.SweepReordered && explicit {
		return nil, fmt.Errorf("snapshot: reordered mode with an explicit sweep order")
	}
	if mode != core.SweepReordered && !explicit {
		return nil, fmt.Errorf("snapshot: %v mode without a sweep order", mode)
	}

	i32s := func(idx int, count int, what string) ([]int32, error) {
		s := secs[idx]
		if s.len != int64(count)*4 {
			return nil, fmt.Errorf("snapshot: %s section has %d bytes, want %d", what, s.len, count*4)
		}
		if count == 0 {
			return nil, nil
		}
		return unsafe.Slice((*int32)(unsafe.Pointer(&data[s.off])), count), nil
	}
	// i32sAny accepts any multiple-of-4 length and returns the implied
	// count — for sections whose length is only known from the table.
	i32sAny := func(idx int, what string) ([]int32, error) {
		s := secs[idx]
		if s.len%4 != 0 || s.len/4 >= maxDim {
			return nil, fmt.Errorf("snapshot: %s section has odd length %d", what, s.len)
		}
		if s.len == 0 {
			return nil, nil
		}
		return unsafe.Slice((*int32)(unsafe.Pointer(&data[s.off])), s.len/4), nil
	}
	arcsAny := func(idx int, what string) ([]graph.Arc, error) {
		s := secs[idx]
		if s.len%8 != 0 || s.len/8 >= maxDim {
			return nil, fmt.Errorf("snapshot: %s section has odd length %d", what, s.len)
		}
		if s.len == 0 {
			return nil, nil
		}
		return unsafe.Slice((*graph.Arc)(unsafe.Pointer(&data[s.off])), s.len/8), nil
	}

	readGraph := func(fIdx, aIdx int, what string) (*graph.Graph, error) {
		first, err := i32s(fIdx, n+1, what+" first")
		if err != nil {
			return nil, err
		}
		arcs, err := arcsAny(aIdx, what+" arcs")
		if err != nil {
			return nil, err
		}
		if first == nil {
			return nil, fmt.Errorf("snapshot: %s has no vertices", what)
		}
		g, err := graph.FromRaw(first, arcs)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %s: %w", what, err)
		}
		return g, nil
	}

	hg, err := readGraph(secHGFirst, secHGArcs, "hierarchy graph")
	if err != nil {
		return nil, err
	}
	up, err := readGraph(secUpFirst, secUpArcs, "upward graph")
	if err != nil {
		return nil, err
	}
	down, err := readGraph(secDownFirst, secDownArcs, "downward graph")
	if err != nil {
		return nil, err
	}
	downIn, err := readGraph(secDownInFirst, secDownInArcs, "incoming downward graph")
	if err != nil {
		return nil, err
	}
	orig, err := readGraph(secOrigFirst, secOrigArcs, "original graph")
	if err != nil {
		return nil, err
	}
	if downIn.NumArcs() != down.NumArcs() {
		return nil, fmt.Errorf("snapshot: DownIn has %d arcs, Down has %d", downIn.NumArcs(), down.NumArcs())
	}
	if orig.NumVertices() != n {
		return nil, fmt.Errorf("snapshot: original graph has %d vertices, want %d", orig.NumVertices(), n)
	}

	rank, err := i32s(secRank, n, "rank")
	if err != nil {
		return nil, err
	}
	if err := checkPermutation(rank, n, "rank"); err != nil {
		return nil, err
	}
	level, err := i32s(secLevel, n, "level")
	if err != nil {
		return nil, err
	}
	for v, l := range level {
		if l < 0 || l > int32(maxLevel) {
			return nil, fmt.Errorf("snapshot: level %d of vertex %d escapes [0,%d]", l, v, maxLevel)
		}
	}
	mids := func(idx int, count int, what string) ([]int32, error) {
		m, err := i32s(idx, count, what)
		if err != nil {
			return nil, err
		}
		for i, v := range m {
			if v < -1 || int(v) >= n {
				return nil, fmt.Errorf("snapshot: %s[%d]=%d escapes [-1,%d)", what, i, v, n)
			}
		}
		return m, nil
	}
	upMid, err := mids(secUpMid, up.NumArcs(), "up mids")
	if err != nil {
		return nil, err
	}
	downMid, err := mids(secDownMid, down.NumArcs(), "down mids")
	if err != nil {
		return nil, err
	}
	downInMid, err := mids(secDownInMid, downIn.NumArcs(), "down-in mids")
	if err != nil {
		return nil, err
	}

	toEngine, err := i32s(secToEngine, n, "toEngine")
	if err != nil {
		return nil, err
	}
	toOrig, err := i32s(secToOrig, n, "toOrig")
	if err != nil {
		return nil, err
	}
	wantOrder := 0
	if explicit {
		wantOrder = n
	}
	order, err := i32s(secOrder, wantOrder, "order")
	if err != nil {
		return nil, err
	}
	pos, err := i32s(secPos, wantOrder, "pos")
	if err != nil {
		return nil, err
	}

	var levelRanges [][2]int32
	{
		s := secs[secLevelRanges]
		if s.len%8 != 0 || s.len/8 > int64(n)+1 {
			return nil, fmt.Errorf("snapshot: level ranges section has invalid length %d", s.len)
		}
		if s.len > 0 {
			levelRanges = unsafe.Slice((*[2]int32)(unsafe.Pointer(&data[s.off])), s.len/8)
		} else if mode != core.SweepRankOrder && n > 0 {
			return nil, fmt.Errorf("snapshot: %v mode without level ranges", mode)
		}
	}

	stream := secs[secPackedStream]
	if stream.len%4 != 0 || stream.len/4 >= maxDim {
		return nil, fmt.Errorf("snapshot: packed stream section has odd length %d", stream.len)
	}
	var words []uint32
	if stream.len > 0 {
		words = unsafe.Slice((*uint32)(unsafe.Pointer(&data[stream.off])), stream.len/4)
	}
	blocks, err := i32s(secPackedBlocks, n+1, "packed blocks")
	if err != nil {
		return nil, err
	}
	packed, err := graph.PackedFromParts(words, blocks, order, n, downIn.NumArcs())
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}

	chunkStart, err := i32sAny(secChunkStart, "chunk starts")
	if err != nil {
		return nil, err
	}
	numChunks := len(chunkStart) - 1
	chunkDep, err := i32s(secChunkDep, numChunks, "chunk deps")
	if err != nil {
		return nil, err
	}

	h := &ch.Hierarchy{
		G:            hg,
		Rank:         rank,
		Level:        level,
		Up:           up,
		Down:         down,
		DownIn:       downIn,
		UpMid:        upMid,
		DownMid:      downMid,
		DownInMid:    downInMid,
		NumShortcuts: int(shortcuts),
		MaxLevel:     int32(maxLevel),
		MetricEpoch:  metricEpoch,
		MetricName:   name,
	}
	return &Snapshot{
		Parts: core.EngineParts{
			Mode:        mode,
			H:           h,
			ToEngine:    toEngine,
			ToOrig:      toOrig,
			Order:       order,
			Pos:         pos,
			LevelRanges: levelRanges,
			Packed:      packed,
			ChunkStart:  chunkStart,
			ChunkDep:    chunkDep,
		},
		Orig: orig,
		Size: int64(len(data)),
	}, nil
}

func checkPermutation(p []int32, n int, what string) error {
	if len(p) != n {
		return fmt.Errorf("snapshot: %s has %d entries, want %d", what, len(p), n)
	}
	seen := make([]bool, n)
	for i, v := range p {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("snapshot: %s is not a permutation at %d", what, i)
		}
		seen[v] = true
	}
	return nil
}
