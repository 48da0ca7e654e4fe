package graph

// This file holds the raw-parts constructor the snapshot reader uses to
// rebuild the sweep stream around memory it does not own — typically
// slices aliasing an mmap'd file. FromRaw already plays this role for
// Graph (it stores the given first/arcs without copying); PackedFromParts
// extends the same contract to the packed stream.
//
// Unlike NewPacked, which derives a stream from a graph it trusts,
// PackedFromParts receives words from disk and therefore walks the full
// grammar before accepting it: a forged stream must fail here,
// not as an out-of-range index inside a sweep kernel. The walk reads
// every word pair once (O(n+m), allocation-light) — cheap next to the
// build the snapshot replaces, and the price of handing the kernels
// unvalidated file contents is memory unsafety shared by every process
// mapping it.

// PackedFromParts reassembles a Packed stream from its stored parts
// without copying either slice. order is the sweep order the stream was
// laid out in (nil for the identity); it maps positions to vertices and
// is not kept. The grammar is validated in full (see checkStream): the
// first-arc bits against the block index, tail ranges, the dummy
// blocks, the arc count, and the order permutation. The caller keeps
// ownership of the slices and must treat them as immutable afterwards.
func PackedFromParts(stream []uint32, blockStart []int32, order []int32, n, m int) (*Packed, error) {
	if err := checkStream(stream, blockStart, order, n, m); err != nil {
		return nil, err
	}
	return &Packed{stream: stream, blockStart: blockStart, n: n, m: m}, nil
}
