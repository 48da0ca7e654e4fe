package exp

import (
	"time"

	"phast/internal/bandwidth"
	"phast/internal/core"
)

// Bound measures the achieved bandwidth of the production single-tree
// sweep against the Section VIII-B memory lower bounds: the pure
// sequential stream sets the ceiling, and the packed sweep is reported
// as modeled GB/s with its slowdown relative to the stream — the
// regression-checkable form of the paper's "PHAST runs within 2.6x of
// the memory bound" argument. CI's benchmark smoke job gates the same
// ratio against its recorded baseline.
func Bound(e *Env) ([]*Table, error) {
	packed, err := e.Engine(core.SweepReordered, 1)
	if err != nil {
		return nil, err
	}
	downIn := packed.Hierarchy().DownIn
	dist := make([]uint32, e.G.NumVertices())
	const reps = 5
	seq := bandwidth.Sequential(downIn, dist, reps)
	trav := bandwidth.Traversal(downIn, dist, reps)
	seqBytes := bandwidth.BytesTouched(downIn, dist)

	packed.Tree(e.Sources[0]) // warm
	tPacked := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		tPacked = min(tPacked, e.perTree(func(s int32) { packed.Tree(s) }))
	}

	t := &Table{
		ID:      "bound",
		Title:   "achieved sweep bandwidth vs the Sec. VIII-B memory bounds",
		Headers: []string{"measurement", "time/tree [ms]", "modeled MB", "GB/s", "vs stream"},
	}
	row := func(name string, d time.Duration, bytes int64) {
		t.AddRow(name, ms(d), mb(bytes), f2(bandwidth.GBps(bytes, d)),
			f2(float64(d)/float64(seq))+"x")
	}
	row("sequential stream (lower bound)", seq, seqBytes)
	row("vertex-loop traversal bound", trav, seqBytes)
	row("PHAST sweep, packed stream", tPacked, packed.SweepBytes(1))
	csrBytes := int64(downIn.NumVertices()+1)*4 + int64(downIn.NumArcs())*8 + int64(downIn.NumVertices())
	t.AddNote("packed stream: %d words = %s MB fused layout vs %s MB CSR+mark",
		packed.Packed().Words(), mb(packed.Packed().MemoryBytes()), mb(csrBytes))
	t.AddNote("ratios include the upward CH search; paper: PHAST within 2.6x of the stream (Sec. VIII-B)")
	return []*Table{t}, nil
}
