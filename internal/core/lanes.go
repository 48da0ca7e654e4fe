package core

import "phast/internal/graph"

// relax4 performs the packed relaxation of one arc for four trees at
// once — the Go analogue of the paper's SSE 4.1 sequence (Section IV-B):
// load the four tail labels, add four copies of the arc length with
// saturation at Inf, and store the packed minimum with the four head
// labels. dst and src must have length 4 (enforced by full slice
// expressions at the call sites so the compiler can drop bounds checks).
// Only the CSR oracle's lanes kernels use it: its relax target stays in
// memory, where the stream engines' relaxVertexK keeps it in locals.
//
//phast:hotpath
func relax4(dst, src []uint32, w uint32) {
	_ = src[3]
	_ = dst[3]
	s0 := graph.AddSat(src[0], w)
	s1 := graph.AddSat(src[1], w)
	s2 := graph.AddSat(src[2], w)
	s3 := graph.AddSat(src[3], w)
	if s0 < dst[0] {
		dst[0] = s0
	}
	if s1 < dst[1] {
		dst[1] = s1
	}
	if s2 < dst[2] {
		dst[2] = s2
	}
	if s3 < dst[3] {
		dst[3] = s3
	}
}
