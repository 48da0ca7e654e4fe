//go:build !phastdebug

package invariant

import (
	"phast/internal/ch"
	"phast/internal/graph"
)

// Enabled reports whether this binary is a checked build (-tags
// phastdebug) whose validators actually validate. This is the release
// flavor: every check below is a no-op the linker discards.
const Enabled = false

// CSRArrays is a release-build no-op; see the phastdebug flavor.
func CSRArrays(n int, first []int32, arcs []graph.Arc) error { return nil }

// CSR is a release-build no-op; see the phastdebug flavor.
func CSR(g *graph.Graph) error { return nil }

// Permutation is a release-build no-op; see the phastdebug flavor.
func Permutation(perm []int32) error { return nil }

// LevelDescending is a release-build no-op; see the phastdebug flavor.
func LevelDescending(levelsInSweepOrder []int32, ranges [][2]int32) error { return nil }

// Hierarchy is a release-build no-op; see the phastdebug flavor.
func Hierarchy(h *ch.Hierarchy) error { return nil }

// CustomizedMetric is a release-build no-op; see the phastdebug flavor.
func CustomizedMetric(h *ch.Hierarchy) error { return nil }

// PackedStream is a release-build no-op; see the phastdebug flavor.
func PackedStream(p *graph.Packed, g *graph.Graph, order []int32) error { return nil }

// ChunkDepsAt is a release-build no-op; see the phastdebug flavor.
func ChunkDepsAt(g *graph.Graph, order []int32, chunkStart []int32, chunkDep []int32) error {
	return nil
}

// MinHeap is a release-build no-op; see the phastdebug flavor.
func MinHeap(keys []uint32) error { return nil }

// HeapIndex is a release-build no-op; see the phastdebug flavor.
func HeapIndex(vs, pos []int32) error { return nil }
