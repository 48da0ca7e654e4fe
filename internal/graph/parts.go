package graph

import "fmt"

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
// every block once (O(n+m), allocation-light) — cheap next to the build
// the snapshot replaces, and the price of handing the kernels unvalidated
// file contents is memory unsafety shared by every process mapping it.

// PackedFromParts reassembles a Packed stream from its stored parts
// without copying either slice. The stream grammar is validated in full
// (degrees against block starts, head ranges, the order permutation when
// explicitV); the caller keeps ownership of the slices and must treat
// them as immutable afterwards.
func PackedFromParts(stream []uint32, blockStart []int, n, m int, explicitV bool) (*Packed, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: packed parts have negative dims %d/%d", n, m)
	}
	if len(blockStart) != n+1 {
		return nil, fmt.Errorf("graph: packed parts block index has %d entries, want %d", len(blockStart), n+1)
	}
	words := n + 2*m
	if explicitV {
		words += n
	}
	if len(stream) != words {
		return nil, fmt.Errorf("graph: packed parts stream has %d words, want %d", len(stream), words)
	}
	if n > 0 && blockStart[0] != 0 {
		return nil, fmt.Errorf("graph: packed parts block index does not start at 0")
	}
	if len(blockStart) > 0 && blockStart[n] != len(stream) {
		return nil, fmt.Errorf("graph: packed parts block index ends at %d, want %d", blockStart[n], len(stream))
	}
	var seen []bool
	if explicitV {
		seen = make([]bool, n)
	}
	arcs := 0
	for p := 0; p < n; p++ {
		i := blockStart[p]
		if i < 0 || blockStart[p+1] < i || blockStart[p+1] > len(stream) {
			return nil, fmt.Errorf("graph: packed parts block index not monotone at position %d", p)
		}
		if i >= len(stream) {
			return nil, fmt.Errorf("graph: packed parts stream truncated at position %d", p)
		}
		d := int(stream[i])
		i++
		want := 1 + 2*d
		if explicitV {
			v := int32(stream[i])
			i++
			want++
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: packed parts vertex %d out of range at position %d", v, p)
			}
			if seen[v] {
				return nil, fmt.Errorf("graph: packed parts vertex %d appears twice", v)
			}
			seen[v] = true
		}
		if blockStart[p+1]-blockStart[p] != want {
			return nil, fmt.Errorf("graph: packed parts block %d spans %d words, header says %d", p, blockStart[p+1]-blockStart[p], want)
		}
		for a := 0; a < d; a++ {
			if int(stream[i]) >= n {
				return nil, fmt.Errorf("graph: packed parts head %d out of range at position %d", stream[i], p)
			}
			i += 2
		}
		arcs += d
	}
	if arcs != m {
		return nil, fmt.Errorf("graph: packed parts degrees sum to %d arcs, want %d", arcs, m)
	}
	return &Packed{stream: stream, blockStart: blockStart, n: n, m: m, explicitV: explicitV}, nil
}
