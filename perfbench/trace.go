package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Times are nanoseconds since the tracer
// started. Parent is the id of the enclosing span (0 at the root); the
// spans of one request share Request.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; end closes it. The zero openSpan (from a nil
// tracer) is inert.
type openSpan struct {
	t       *tracer
	id      int64
	parent  int64
	request int64
	name    string
	start   time.Time
}

func (t *tracer) begin(name string, parent openSpan) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.ids.Add(1), parent: parent.id, request: parent.request, name: name, start: time.Now()}
}

// request opens the root span of one request, with a fresh request id.
func (t *tracer) request(name string, parent openSpan) openSpan {
	s := t.begin(name, parent)
	if t != nil {
		s.request = t.reqs.Add(1)
	}
	return s
}

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	sp := span{ID: s.id, Parent: s.parent, Request: s.request, Name: s.name,
		Start: s.start.Sub(s.t.epoch).Nanoseconds(), End: now.Sub(s.t.epoch).Nanoseconds()}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// durations returns the durations in milliseconds of every span with
// the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerOf maps a span name to its layer: the text before the first dot
// ("core.Tree" → "core"); names without one belong to the benchmark.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[layerOf(s.Name)] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
