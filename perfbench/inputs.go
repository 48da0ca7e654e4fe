package main

import (
	"math/rand"
	"time"
)

// Every random choice of a run comes from --seed through its own
// stream, so adding draws to one stream never shifts another.
const (
	streamSetup = iota + 1
	streamProbe
	streamUsers // caller u draws from streamUsers+u
)

func newStream(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// vertexStream draws uniform vertices in [0,n).
type vertexStream struct {
	r *rand.Rand
	n int
}

func newVertexStream(seed int64, stream int64, n int) *vertexStream {
	return &vertexStream{r: newStream(seed, stream), n: n}
}

func (s *vertexStream) next() int32 { return int32(s.r.Intn(s.n)) }

func (s *vertexStream) fill(buf []int32) []int32 {
	for i := range buf {
		buf[i] = s.next()
	}
	return buf
}

// userStream is one caller's seeded inputs: its sources and targets,
// the pause before each request, and which answers it keeps for
// verification. The sequence depends on the seed and the caller alone.
type userStream struct {
	vertexStream
	think    time.Duration
	keepProb float64
}

func newUserStream(seed int64, user int, n int, wl workload) *userStream {
	return &userStream{
		vertexStream: *newVertexStream(seed, streamUsers+int64(user), n),
		think:        wl.think,
		keepProb:     wl.keepProb(),
	}
}

// pause is the exponentially distributed think time before the next
// request (0 for callers that send back to back).
func (s *userStream) pause() time.Duration {
	if s.think == 0 {
		return 0
	}
	return time.Duration(s.r.ExpFloat64() * float64(s.think))
}

// keep reports whether the next answer is kept for verification.
func (s *userStream) keep() bool { return s.r.Float64() < s.keepProb }
