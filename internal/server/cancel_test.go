package server

import (
	"context"
	"errors"
	"sync"
	"testing"

	"phast/internal/pq"
	"phast/internal/sssp"
)

// cancelAtFirstCheck is a context that cancels itself on its first Err
// call, the executor's check before the sweep, and reports nil to that
// call: its request is swept and copied out, then found canceled at
// delivery. No timing decides which side of the sweep the cancel lands.
type cancelAtFirstCheck struct {
	context.Context
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelAtFirstCheck) Err() error {
	first := false
	c.once.Do(func() {
		first = true
		c.cancel()
	})
	if first {
		return nil
	}
	return c.Context.Err()
}

// TestCancelAfterSweepStarts forms a batch of four requests while the
// only executor is wedged on testHookBatchStart by an earlier lone
// request; one of the four contexts is canceled once the executor has
// admitted it to the sweep. That request must fail with
// context.Canceled and count in Stats().Canceled, and the three trees
// swept and copied out beside it must match Dijkstra.
func TestCancelAfterSweepStarts(t *testing.T) {
	rec := recordBatches(t, true)
	waitPops := countPops(t)

	g, eng := shardedFixture(t)
	s, err := New(eng, Options{MaxBatch: 4, Engines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer rec.lift() // after s.Close in LIFO order: unwedge before Close waits

	// The wedge: a lone request the idle executor takes at once.
	const wedgeSource = 7
	wedged := make(chan error, 1)
	go func() {
		res, err := s.Query(context.Background(), wedgeSource)
		if err == nil {
			res.Release()
		}
		wedged <- err
	}()
	<-rec.entered

	sources := []int32{3, 40, 111, 250}
	const canceledLane = 1
	type outcome struct {
		res *TreeResult
		err error
	}
	outcomes := make([]chan outcome, len(sources))
	for i, src := range sources {
		ctx := context.Background()
		if i == canceledLane {
			c, cancel := context.WithCancel(ctx)
			defer cancel()
			ctx = &cancelAtFirstCheck{Context: c, cancel: cancel}
		}
		outcomes[i] = make(chan outcome, 1)
		go func(ctx context.Context, src int32, out chan<- outcome) {
			res, err := s.Query(ctx, src)
			out <- outcome{res, err}
		}(ctx, src, outcomes[i])
	}
	// With the executor busy, the four pile up in the dispatcher's
	// pending batch, which fills and waits for the executor.
	waitPops(1 + uint64(len(sources)))
	if st := s.Stats(); st.Batches != 0 || st.Queries != 0 || st.QueueDepth != 0 {
		t.Fatalf("held batch: Stats=%+v, want nothing swept and an empty queue", st)
	}
	rec.lift()
	if err := <-wedged; err != nil {
		t.Fatalf("wedge request: %v", err)
	}

	d := sssp.NewDijkstra(g, pq.KindBinaryHeap)
	for i, src := range sources {
		o := <-outcomes[i]
		if i == canceledLane {
			if !errors.Is(o.err, context.Canceled) {
				t.Fatalf("canceled request returned %v, want context.Canceled", o.err)
			}
			continue
		}
		if o.err != nil {
			t.Fatalf("request %d (source %d): %v", i, src, o.err)
		}
		d.Run(src)
		for v := 0; v < g.NumVertices(); v++ {
			if got, want := o.res.Dist(int32(v)), d.Dist(int32(v)); got != want {
				t.Fatalf("source %d vertex %d: %d, Dijkstra %d", src, v, got, want)
			}
		}
		o.res.Release()
	}
	// Close waits for the executor, so its delivery loop has counted
	// the canceled request by the time Stats is read.
	rec.lift()
	s.Close()
	st := s.Stats()
	if st.Canceled != 1 || st.Queries != uint64(len(sources)) {
		t.Fatalf("Canceled=%d Queries=%d, want 1 and %d", st.Canceled, st.Queries, len(sources))
	}
	// The canceled request was swept with the others: the wedge's batch
	// of one, then one batch of four.
	if st.Batches != 2 || st.MeanBatchOccupancy != float64(1+len(sources))/2 {
		t.Fatalf("Batches=%d occupancy %.2f, want a batch of 1 and one of %d", st.Batches, st.MeanBatchOccupancy, len(sources))
	}
	if st.CopySeconds <= 0 {
		t.Fatalf("CopySeconds=%v, want >0 after a served batch", st.CopySeconds)
	}
}
