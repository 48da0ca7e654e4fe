package phast

import (
	"fmt"
	"io"
	"os"
	"time"

	"phast/internal/ch"
	"phast/internal/core"
	"phast/internal/snapshot"
)

// SaveSnapshot serializes the *complete* engine — hierarchy with metric
// identity, sweep streams, chunk schedule, orders and levels — in the
// versioned zero-copy snapshot format (see internal/snapshot). Unlike
// SaveHierarchy, which stores only what preprocessing produced and
// leaves every process to re-derive the sweep layout, a snapshot
// restores in milliseconds via LoadSnapshot with all large arrays
// aliasing the file's pages.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	_, err := snapshot.Write(w, e.core.Parts(), e.g)
	return err
}

// SaveSnapshotFile is SaveSnapshot to a file path, written atomically
// (temp file + rename) so a concurrently loading process never maps a
// half-written snapshot.
func (e *Engine) SaveSnapshotFile(path string) error {
	tmp, err := os.CreateTemp(dirOf(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := e.SaveSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1]
		}
	}
	return "."
}

// LoadSnapshot maps a snapshot file and restores the engine around it
// with zero large-array copies: on unix hosts every array aliases the
// PROT_READ shared mapping, so N processes loading the same file share
// one physical copy and cold start is bounded by validation, not
// allocation. The sweep layout (mode, stream kind, chunk schedule) is
// the snapshot's own; of opt only SweepWorkers is honored (CHWorkers is
// ignored: the hierarchy already exists). opt may be nil.
//
// The mapping stays alive while the engine (or any clone) is reachable
// and is unmapped by a finalizer afterwards. The aliased pages are
// read-only and shared between processes — treat every array reachable
// from the engine as immutable (phastlint's snapshotalias analyzer
// flags writes through //phast:readonly accessors).
func LoadSnapshot(path string, opt *Options) (*Engine, error) {
	start := time.Now()
	snap, err := snapshot.Load(path)
	if err != nil {
		return nil, err
	}
	return engineFromSnapshot(snap, opt, start)
}

// ReadSnapshot restores an engine from a snapshot stream via the
// heap-allocating fallback reader: one aligned buffer holds the file
// image and the arrays alias it, so the decode itself still copies
// nothing. Use LoadSnapshot where mmap is available.
func ReadSnapshot(r io.Reader, opt *Options) (*Engine, error) {
	start := time.Now()
	snap, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return engineFromSnapshot(snap, opt, start)
}

func engineFromSnapshot(snap *snapshot.Snapshot, opt *Options, start time.Time) (*Engine, error) {
	if opt == nil {
		opt = &Options{}
	}
	c, err := core.NewEngineFromParts(snap.Parts, opt.SweepWorkers, core.SnapshotInfo{
		Bytes: snap.Size,
		Hold:  snap.Hold,
	})
	if err != nil {
		return nil, fmt.Errorf("phast: %w", err)
	}
	c.SetColdStart(time.Since(start))
	return &Engine{
		g:             snap.Orig,
		h:             snap.Parts.H,
		core:          c,
		query:         ch.NewQuery(snap.Parts.H),
		permutedQuery: true,
	}, nil
}

// SnapshotBytes returns the on-disk size of the snapshot this engine
// was restored from, or 0 for engines built in-process.
func (e *Engine) SnapshotBytes() int64 { return e.core.SnapshotBytes() }

// ColdStart returns how long restoring this engine from its snapshot
// took, or 0 for engines built in-process.
func (e *Engine) ColdStart() time.Duration { return e.core.ColdStart() }
