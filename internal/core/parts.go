package core

import (
	"fmt"
	"runtime"
	"time"

	"phast/internal/ch"
	"phast/internal/graph"
	"phast/internal/sched"
)

// EngineParts is the engine's shared, source-independent state in
// transportable form: everything NewEngine derives from a hierarchy —
// the relabeled hierarchy itself, ID mappings, sweep order, level
// ranges, the packed stream, and the chunk schedule with
// its precomputed dependency bounds. Parts exposes a live engine's
// state for serialization; NewEngineFromParts rebuilds an engine around
// it without re-deriving anything, which is what makes an mmap'd
// snapshot a millisecond cold start instead of a rebuild.
//
// All slices are shared, never copied: Parts returns views of the
// engine's own arrays, and NewEngineFromParts adopts the given slices
// (typically aliases of a read-only mapped file — see //phast:readonly
// on the snapshot accessors). Holders must treat every field as
// immutable.
type EngineParts struct {
	// Mode is the sweep order the schedule below was derived for.
	Mode SweepMode
	// H is the engine-ID hierarchy: permuted by descending level in
	// SweepReordered mode, the original hierarchy otherwise.
	H *ch.Hierarchy
	// ToEngine/ToOrig map original IDs to engine IDs and back (identity
	// except in SweepReordered mode).
	ToEngine, ToOrig []int32
	// Order is the sweep order as engine IDs (nil = identity scan) and
	// Pos its inverse (nil exactly when Order is nil).
	Order, Pos []int32
	// LevelRanges are the sweep-position ranges of each level, nil in
	// SweepRankOrder mode.
	LevelRanges [][2]int32
	// Packed is the sweep stream; it must be non-nil.
	Packed *graph.Packed
	// ChunkStart/ChunkDep are the scheduler's chunk boundaries (sweep
	// positions, len NumChunks+1) and per-chunk dependency chunks.
	ChunkStart []int32
	ChunkDep   []int32
}

// SnapshotInfo carries the provenance of an engine restored from a
// snapshot: the on-disk footprint, the measured cold start, and a hold
// reference that keeps the backing mapping alive (and thus mapped) for
// as long as any engine over this shared state exists.
type SnapshotInfo struct {
	Bytes     int64
	ColdStart time.Duration
	// Hold is retained, never interrogated: the mapping's own finalizer
	// unmaps once nothing references it.
	Hold any
}

// Parts exposes the engine's shared state for serialization. The
// returned views alias the engine's live arrays; callers must not
// modify them.
func (e *Engine) Parts() EngineParts {
	s := e.s
	return EngineParts{
		Mode:        s.mode,
		H:           s.h,
		ToEngine:    s.toEngine,
		ToOrig:      s.toOrig,
		Order:       s.order,
		Pos:         s.pos,
		LevelRanges: s.levelRanges,
		Packed:      s.packed,
		ChunkStart:  s.chunkStart,
		ChunkDep:    s.chunkDep,
	}
}

// NewEngineFromParts rebuilds an engine around previously derived parts
// — the load half of a snapshot. Nothing is recomputed or copied: the
// hierarchy, stream, and chunk schedule are adopted as given after a
// consistency pass (permutations, chunk boundary shape, stream dims),
// and a fresh worker pool is parked exactly as NewEngine would.
// workers <= 0 selects GOMAXPROCS. info ties the restored engine to its
// snapshot: the mapping hold, byte size, and cold-start duration it
// reports through SnapshotBytes/ColdStart.
func NewEngineFromParts(p EngineParts, workers int, info SnapshotInfo) (*Engine, error) {
	if p.H == nil || p.H.G == nil || p.H.Up == nil || p.H.DownIn == nil {
		return nil, fmt.Errorf("core: parts hierarchy is incomplete")
	}
	n := p.H.G.NumVertices()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := checkPermutationPair(p.ToEngine, p.ToOrig, n, "ToEngine/ToOrig"); err != nil {
		return nil, err
	}
	switch p.Mode {
	case SweepReordered:
		if p.Order != nil || p.Pos != nil {
			return nil, fmt.Errorf("core: parts carry a sweep order in reordered mode")
		}
		if p.LevelRanges == nil {
			return nil, fmt.Errorf("core: parts lack level ranges in reordered mode")
		}
	case SweepLevelOrder, SweepRankOrder:
		if err := checkPermutationPair(p.Order, p.Pos, n, "Order/Pos"); err != nil {
			return nil, err
		}
		if p.Mode == SweepLevelOrder && p.LevelRanges == nil {
			return nil, fmt.Errorf("core: parts lack level ranges in level-order mode")
		}
	default:
		return nil, fmt.Errorf("core: unknown sweep mode %v", p.Mode)
	}
	if p.LevelRanges != nil {
		at := int32(0)
		for i, r := range p.LevelRanges {
			if r[0] != at || r[1] < r[0] || r[1] > int32(n) {
				return nil, fmt.Errorf("core: parts level range %d is [%d,%d) at position %d", i, r[0], r[1], at)
			}
			at = r[1]
		}
		if at != int32(n) {
			return nil, fmt.Errorf("core: parts level ranges cover %d of %d positions", at, n)
		}
	}
	if p.Packed == nil {
		return nil, fmt.Errorf("core: parts carry no sweep stream")
	}
	m := p.H.DownIn.NumArcs()
	if p.Packed.NumVertices() != n || p.Packed.NumArcs() != m {
		return nil, fmt.Errorf("core: packed stream dims %d/%d do not match hierarchy %d/%d",
			p.Packed.NumVertices(), p.Packed.NumArcs(), n, m)
	}
	if err := graph.ValidChunkStarts(p.ChunkStart, n); err != nil {
		return nil, fmt.Errorf("core: parts chunk starts: %w", err)
	}
	numChunks := int32(len(p.ChunkStart) - 1)
	if len(p.ChunkDep) != int(numChunks) {
		return nil, fmt.Errorf("core: parts have %d chunk deps for %d chunks", len(p.ChunkDep), numChunks)
	}
	for c, d := range p.ChunkDep {
		if d < -1 || d >= int32(c) {
			return nil, fmt.Errorf("core: parts chunk dep %d of chunk %d escapes [-1,%d)", d, c, c)
		}
	}
	s := &shared{
		mode:          p.Mode,
		n:             n,
		h:             p.H,
		up:            p.H.Up,
		downIn:        p.H.DownIn,
		order:         p.Order,
		levelRanges:   p.LevelRanges,
		toEngine:      p.ToEngine,
		toOrig:        p.ToOrig,
		packed:        p.Packed,
		pos:           p.Pos,
		chunkStart:    p.ChunkStart,
		numChunks:     numChunks,
		chunkDep:      p.ChunkDep,
		hold:          info.Hold,
		snapshotBytes: info.Bytes,
		coldStart:     info.ColdStart,
	}
	s.pool = sched.NewPool(workers)
	runtime.SetFinalizer(s, func(s *shared) { s.pool.Release() })
	return newEngineFromShared(s), nil
}

// checkPermutationPair verifies a and b are length-n permutations that
// invert each other.
func checkPermutationPair(a, b []int32, n int, what string) error {
	if len(a) != n || len(b) != n {
		return fmt.Errorf("core: parts %s have lengths %d/%d, want %d", what, len(a), len(b), n)
	}
	for i, v := range a {
		if v < 0 || int(v) >= n || b[v] != int32(i) {
			return fmt.Errorf("core: parts %s are not inverse permutations at %d", what, i)
		}
	}
	return nil
}

// SnapshotBytes returns the on-disk size of the snapshot this engine's
// shared state was restored from, or 0 for engines built in-process.
func (e *Engine) SnapshotBytes() int64 { return e.s.snapshotBytes }

// ColdStart returns how long restoring this engine from its snapshot
// took (mapping + validation + pool spawn), or 0 for engines built
// in-process.
func (e *Engine) ColdStart() time.Duration { return e.s.coldStart }

// SetColdStart records the measured restore duration. The facade calls
// it once right after NewEngineFromParts so the engine-assembly time is
// included; it is not for later mutation (clones share the value).
func (e *Engine) SetColdStart(d time.Duration) { e.s.coldStart = d }
