package server

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/graph"
)

// White-box overload tests. Emergent queue overflow cannot be provoked
// reliably on a small machine — the scheduler's direct channel handoffs
// serialize client, dispatcher and executor — so these tests wedge the
// executor via testHookBatchStart and fill each pipeline stage by hand.

func overloadEngine(t *testing.T) *core.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(90))
	b := graph.NewBuilder(16)
	for i := int32(0); i < 15; i++ {
		w := uint32(1 + rng.Intn(9))
		b.MustAddArc(i, i+1, w)
		b.MustAddArc(i+1, i, w)
	}
	h := ch.Build(b.Build(), ch.Options{Workers: 1})
	e, err := core.NewEngine(h, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitQueueDepth polls until the request queue shows depth want.
func waitQueueDepth(t *testing.T, s *TreeServer, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", want, s.Stats().QueueDepth)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// countPops installs a testHookRequestsPopped counter (restored via
// t.Cleanup) and returns a waiter that blocks until the dispatcher has
// popped want requests off the queue and fails if it popped more. Queue depth cannot sequence the
// pipeline-filling steps — it reads 0 both before a query enqueues and
// after it is popped — so the tests gate on dispatcher progress
// instead; otherwise two staged queries can race for the one queue
// slot and the overflow query is rejected one step early.
func countPops(t *testing.T) func(want uint64) {
	t.Helper()
	var pops atomic.Uint64
	old := testHookRequestsPopped
	testHookRequestsPopped = func(n int) { pops.Add(uint64(n)) }
	t.Cleanup(func() { testHookRequestsPopped = old })
	return func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for pops.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("dispatcher never popped %d requests (now %d)", want, pops.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
		if got := pops.Load(); got != want {
			t.Fatalf("dispatcher popped %d requests, want exactly %d", got, want)
		}
	}
}

// TestRejectOnFullDeterministic fills every stage of the pipeline —
// executor (wedged on the hook), the dispatcher's pending batch blocked
// in its hand-off, request queue — and asserts the next query is
// rejected with ErrOverloaded while all queued ones complete once the
// wedge lifts.
func TestRejectOnFullDeterministic(t *testing.T) {
	rec := recordBatches(t, true)
	waitPops := countPops(t)

	s, err := New(overloadEngine(t), Options{
		MaxBatch: 1, Engines: 1, QueueSize: 1, Overload: RejectOnFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Registered after s.Close so it runs first: if an assertion fails
	// while the executor is wedged, Close would otherwise wait forever
	// for the executor parked in the hook.
	defer rec.lift()

	// Pipeline capacity before rejection: 1 wedged in the executor,
	// 1 in the dispatcher's pending batch, blocked handing it over (the
	// batch channel is unbuffered), 1 in the request queue.
	type outcome struct {
		res *TreeResult
		err error
	}
	results := make(chan outcome, 3)
	fire := func() {
		go func() {
			res, err := s.Query(context.Background(), 3)
			results <- outcome{res, err}
		}()
	}
	fire() // q1 -> executor
	<-rec.entered
	fire() // q2 -> dispatcher, blocked sending its pending batch
	waitPops(2)
	fire() // q3 -> request queue
	waitQueueDepth(t, s, 1)
	// The blocked dispatcher holds exactly one request: it must not
	// have popped q3.
	waitPops(2)

	if _, err := s.Query(context.Background(), 3); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full pipeline returned %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("Stats().Rejected=%d, want 1", st.Rejected)
	}

	rec.lift() // lift the wedge; later batches pass the hook instantly
	for i := 0; i < 3; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("queued query %d failed after wedge lifted: %v", i, o.err)
		}
		if o.res.Dist(3) != 0 {
			t.Fatalf("queued query %d: wrong tree", i)
		}
		o.res.Release()
	}
	rec.check(t, []int{1, 1, 1})
	if st := s.Stats(); st.Queries != 3 || st.Rejected != 1 {
		t.Fatalf("Stats=%+v, want 3 served / 1 rejected", st)
	}
}

// TestBlockOnFullWaitsInsteadOfRejecting wedges the pipeline the same
// way under the blocking policy and checks the overflow query waits
// (respecting its context) rather than failing.
func TestBlockOnFullWaitsInsteadOfRejecting(t *testing.T) {
	rec := recordBatches(t, true)
	waitPops := countPops(t)

	s, err := New(overloadEngine(t), Options{
		MaxBatch: 1, Engines: 1, QueueSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer rec.lift() // after s.Close in LIFO order: unwedge before Close waits

	results := make(chan error, 8)
	fire := func() {
		go func() {
			res, err := s.Query(context.Background(), 5)
			if err == nil {
				res.Release()
			}
			results <- err
		}()
	}
	fire() // executor
	<-rec.entered
	fire() // dispatcher's pending batch
	waitPops(2)
	fire() // request queue
	waitQueueDepth(t, s, 1)
	waitPops(2) // exactly two requests are past the queue

	// Overflow with an expiring context: must block, then surface the
	// deadline rather than ErrOverloaded.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := s.Query(ctx, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked overflow query returned %v, want DeadlineExceeded", err)
	}
	if st := s.Stats(); st.Rejected != 0 {
		t.Fatalf("blocking policy counted %d rejections", st.Rejected)
	}

	rec.lift()
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued query %d failed: %v", i, err)
		}
	}
}
