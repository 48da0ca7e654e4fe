package core

import "phast/internal/invariant"

// CheckInvariants deep-validates the engine's preprocessed data with
// internal/invariant: the (possibly relabeled) hierarchy, the engine-ID
// permutations, the level-descending sweep order with its parallel
// barrier ranges, and the CH search heap's index. Under a release build
// (no phastdebug tag) it returns nil immediately; build or test with
// -tags phastdebug to turn the checks on.
func (e *Engine) CheckInvariants() error {
	if !invariant.Enabled {
		return nil
	}
	s := e.s
	if err := invariant.Hierarchy(s.h); err != nil {
		return err
	}
	if err := invariant.Permutation(s.toEngine); err != nil {
		return err
	}
	if err := invariant.Permutation(s.toOrig); err != nil {
		return err
	}
	if s.levelRanges != nil {
		lvls := s.h.Level
		if s.order != nil {
			lvls = make([]int32, s.n)
			for i, v := range s.order {
				lvls[i] = s.h.Level[v]
			}
		}
		if err := invariant.LevelDescending(lvls, s.levelRanges); err != nil {
			return err
		}
	}
	if err := invariant.PackedStream(s.packed, s.downIn, s.order); err != nil {
		return err
	}
	if s.chunkDep != nil {
		if err := invariant.ChunkDepsAt(s.downIn, s.order, s.chunkStart, s.chunkDep); err != nil {
			return err
		}
	}
	if err := invariant.MinHeap(e.queue.keys); err != nil {
		return err
	}
	return invariant.HeapIndex(e.queue.vs, e.queue.pos)
}
