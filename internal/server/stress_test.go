package server_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"phast/internal/server"
)

// The stress tests are written to be meaningful under `go test -race`:
// they maximize interleavings between Query admission, dispatcher
// batching, executor fan-out, context cancellation and Close, and they
// tolerate every legal outcome (result, ErrClosed, ErrOverloaded,
// context error) while failing on any illegal one.

func stressIters(t *testing.T, full int) int {
	t.Helper()
	if testing.Short() {
		return full / 5
	}
	return full
}

// TestServerStressWithConcurrentClose hammers one server from
// NumCPU()×4 goroutines that mix plain queries, canceled contexts and
// short timeouts while another goroutine closes the server mid-flight.
func TestServerStressWithConcurrentClose(t *testing.T) {
	for _, policy := range []server.OverloadPolicy{server.BlockOnFull, server.RejectOnFull} {
		policy := policy
		name := "block"
		if policy == server.RejectOnFull {
			name = "reject"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(401))
			g := gridGraph(rng, 10, 10, 25)
			n := g.NumVertices()
			s, err := server.New(newCoreEngine(t, g, 1), server.Options{
				MaxBatch: 4, Engines: 2, QueueSize: 8,
				Overload: policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			goroutines := runtime.NumCPU() * 4
			iters := stressIters(t, 150)
			var wg sync.WaitGroup
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(500 + w)))
					for i := 0; i < iters; i++ {
						src := int32(rng.Intn(n))
						ctx := context.Background()
						var cancel context.CancelFunc
						switch i % 5 {
						case 1: // pre-canceled
							ctx, cancel = context.WithCancel(ctx)
							cancel()
						case 2: // tight timeout that may fire mid-batch
							ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
						}
						res, err := s.Query(ctx, src)
						if cancel != nil {
							cancel()
						}
						switch {
						case err == nil:
							if res.Source() != src || res.Dist(src) != 0 {
								t.Errorf("bad result: source %d dist %d", res.Source(), res.Dist(src))
							}
							res.Release()
						case errors.Is(err, server.ErrClosed),
							errors.Is(err, server.ErrOverloaded),
							errors.Is(err, context.Canceled),
							errors.Is(err, context.DeadlineExceeded):
							// all legal under stress
						default:
							t.Errorf("illegal error: %v", err)
						}
					}
				}(w)
			}
			// Close while the clients are still firing; every Query must
			// then resolve as a result or ErrClosed — never hang.
			time.Sleep(2 * time.Millisecond)
			closeDone := make(chan struct{})
			go func() {
				s.Close()
				close(closeDone)
			}()
			wg.Wait()
			select {
			case <-closeDone:
			case <-time.After(30 * time.Second):
				t.Fatal("Close did not drain in-flight batches")
			}
			if _, err := s.Query(context.Background(), 0); !errors.Is(err, server.ErrClosed) {
				t.Fatalf("post-close Query returned %v", err)
			}
		})
	}
}

// TestServerStressQueryMany interleaves QueryMany batches from many
// goroutines so lanes from different callers share sweeps.
func TestServerStressQueryMany(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	g := gilbertGraph(rng, 120, 4.0/120, 100)
	n := g.NumVertices()
	s := newServer(t, g, server.Options{MaxBatch: 8, Engines: 2})
	goroutines := runtime.NumCPU() * 4
	iters := stressIters(t, 40)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(600 + w)))
			for i := 0; i < iters; i++ {
				sources := make([]int32, 1+rng.Intn(6))
				for j := range sources {
					sources[j] = int32(rng.Intn(n))
				}
				results, err := s.QueryMany(context.Background(), sources)
				if err != nil {
					t.Errorf("QueryMany: %v", err)
					return
				}
				for j, res := range results {
					if res.Source() != sources[j] {
						t.Errorf("lane mixup: result %d has source %d, want %d",
							j, res.Source(), sources[j])
					}
					res.Release()
				}
			}
		}(w)
	}
	wg.Wait()
}
