package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// White-box tests of batch formation. Dispatch is work-conserving, so
// the shape of every batch follows from which executors are busy, not
// from timing: the tests record each batch's size on testHookBatchStart
// and, where they need requests to pile up, wedge the only executor
// there first.

// batchRecorder installs a testHookBatchStart that records every
// batch's size and holds each batch on the hook until lift is called.
// entered receives once per batch.
type batchRecorder struct {
	mu      sync.Mutex
	sizes   []int
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func recordBatches(t *testing.T, wedge bool) *batchRecorder {
	t.Helper()
	b := &batchRecorder{entered: make(chan struct{}, 64), gate: make(chan struct{})}
	if !wedge {
		b.lift()
	}
	old := testHookBatchStart
	testHookBatchStart = func(batch []request) {
		b.mu.Lock()
		b.sizes = append(b.sizes, len(batch))
		b.mu.Unlock()
		b.entered <- struct{}{}
		<-b.gate
	}
	t.Cleanup(func() { testHookBatchStart = old })
	return b
}

func (b *batchRecorder) lift() { b.once.Do(func() { close(b.gate) }) }

func (b *batchRecorder) check(t *testing.T, want []int) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !slices.Equal(b.sizes, want) {
		t.Fatalf("batch sizes %v, want %v", b.sizes, want)
	}
}

// newBatchServer starts a one-executor server over the 16-vertex path
// of overloadEngine; Close runs at cleanup, after any wedge is lifted.
func newBatchServer(t *testing.T, maxBatch int, rec *batchRecorder) *TreeServer {
	t.Helper()
	s, err := New(overloadEngine(t), Options{MaxBatch: maxBatch, Engines: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rec.lift()
		s.Close()
	})
	return s
}

// TestQueryManySweepsFullChunks checks that QueryMany keeps its sweeps
// full although the executor is idle when its first chunk arrives: the
// sources go out in whole chunks of MaxBatch and only the last one is
// short.
func TestQueryManySweepsFullChunks(t *testing.T) {
	for _, tc := range []struct {
		maxBatch, sources int
		want              []int
	}{
		{16, 64, []int{16, 16, 16, 16}},
		{4, 10, []int{4, 4, 2}},
		{4, 3, []int{3}},
	} {
		t.Run(fmt.Sprintf("k=%d/n=%d", tc.maxBatch, tc.sources), func(t *testing.T) {
			rec := recordBatches(t, false)
			s := newBatchServer(t, tc.maxBatch, rec)
			sources := make([]int32, tc.sources)
			for i := range sources {
				sources[i] = int32(i % s.NumVertices())
			}
			results, err := s.QueryMany(context.Background(), sources)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Source() != sources[i] || r.Dist(sources[i]) != 0 {
					t.Fatalf("result %d is not the tree of source %d", i, sources[i])
				}
				r.Release()
			}
			rec.check(t, tc.want)
			st := s.Stats()
			if st.Batches != uint64(len(tc.want)) || st.MeanBatchOccupancy != float64(tc.sources)/float64(len(tc.want)) {
				t.Fatalf("Batches=%d occupancy %v, want %v", st.Batches, st.MeanBatchOccupancy, tc.want)
			}
		})
	}
}

// TestLoneQueriesSweptAlone sends queries one after another to an idle
// server: each is handed to the waiting executor at once, so every
// sweep holds one tree.
func TestLoneQueriesSweptAlone(t *testing.T) {
	rec := recordBatches(t, false)
	s := newBatchServer(t, 16, rec)
	for src := int32(0); src < 5; src++ {
		res, err := s.Query(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist(src) != 0 {
			t.Fatalf("source %d: wrong tree", src)
		}
		res.Release()
	}
	rec.check(t, []int{1, 1, 1, 1, 1})
	if st := s.Stats(); st.Batches != 5 || st.MeanBatchOccupancy != 1 {
		t.Fatalf("Batches=%d occupancy %v, want 5 sweeps of one tree", st.Batches, st.MeanBatchOccupancy)
	}
}

// TestWedgedQueriesCoalesce wedges the only executor on a lone request,
// then sends n concurrent queries. They pile up, at most MaxBatch in the
// dispatcher's pending batch and the rest in the queue, and once the
// wedge lifts they are swept in ⌈n/MaxBatch⌉ batches.
func TestWedgedQueriesCoalesce(t *testing.T) {
	const maxBatch = 4
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{3, []int{1, 3}},
		{4, []int{1, 4}},
		{10, []int{1, 4, 4, 2}},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			rec := recordBatches(t, true)
			waitPops := countPops(t)
			s := newBatchServer(t, maxBatch, rec)
			errs := make(chan error, tc.n+1)
			query := func(src int32) {
				res, err := s.Query(context.Background(), src)
				if err == nil {
					if res.Dist(src) != 0 {
						err = fmt.Errorf("source %d: wrong tree", src)
					}
					res.Release()
				}
				errs <- err
			}
			go query(0)
			<-rec.entered
			for i := 0; i < tc.n; i++ {
				go query(int32(1 + i%15))
			}
			waitPops(uint64(1 + min(tc.n, maxBatch)))
			waitQueueDepth(t, s, max(tc.n-maxBatch, 0))
			rec.lift()
			for i := 0; i <= tc.n; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			rec.check(t, tc.want)
		})
	}
}

// TestCloseDrainsPendingBatch closes the server while requests sit in
// the dispatcher's under-full pending batch and the executor is wedged:
// Close must hand that batch over, so every enqueued request still gets
// exactly one result, and later queries fail with ErrClosed.
func TestCloseDrainsPendingBatch(t *testing.T) {
	rec := recordBatches(t, true)
	waitPops := countPops(t)
	s := newBatchServer(t, 4, rec)
	const n = 3
	errs := make(chan error, n+1)
	for i := 0; i <= n; i++ {
		if i == 1 {
			<-rec.entered // the first request holds the executor
		}
		go func(src int32) {
			res, err := s.Query(context.Background(), src)
			if err == nil {
				res.Release()
			}
			errs <- err
		}(int32(i))
	}
	waitPops(n + 1)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Wait until Close has stopped admission, with the pipeline still
	// wedged, so the pending batch is flushed by the close path.
	for {
		s.mu.RLock()
		stopped := s.closed
		s.mu.RUnlock()
		if stopped {
			break
		}
		runtime.Gosched()
	}
	if _, err := s.Query(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("query during Close returned %v, want ErrClosed", err)
	}
	rec.lift()
	<-closed
	for i := 0; i <= n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("enqueued query failed: %v", err)
		}
	}
	rec.check(t, []int{1, n})
	if st := s.Stats(); st.Queries != n+1 {
		t.Fatalf("Queries=%d, want %d", st.Queries, n+1)
	}
}
