package core

import (
	"slices"
	"time"

	"phoenix/internal/heap"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

// Cleanup is the §3.4 mark-and-sweep cleanup of one PHOENIX recovery, run
// the way cross-check validation runs (§3.6): off the restart window, on a
// copy-on-write fork of the preserved state. FinishRecovery charges the fork,
// then marks and collects in the background; the successor serves at once.
// The collected chunks are freed later, by Reclaim, at a request boundary
// once the background work is done.
//
// No write barrier is needed between the two halves. The successor
// re-derives every root from the recovery-info block, so a chunk the mark
// traversal left unreached stays unreachable; and chunks allocated or freed
// after the fork never enter the collected set.
type Cleanup struct {
	// Fork is the copy-on-write fork charged to the restart window:
	// ForkCoW over the preserved pages, copying the ones dirty at fork time.
	Fork time.Duration
	// Due is the main-clock time the background mark and collect finish.
	Due time.Duration
	// Reclaimed is set once the collected chunks are freed; ReclaimedAt is
	// the main-clock time the frees landed, and FreedChunks and FreedBytes
	// count them.
	Reclaimed   bool
	ReclaimedAt time.Duration
	FreedChunks int
	FreedBytes  int64

	rt      *Runtime
	heaps   []*heap.Heap
	garbage [][]mem.VAddr // per heap, in heaps order
	ranges  []linker.Range
	// forkDirty is the sorted set of preserved pages already dirty at fork
	// time: the fork copied them eagerly, so a later write costs nothing.
	forkDirty []mem.PageNum
}

// startCleanup forks the preserved state, runs mark and one collecting walk
// per heap on it in the background, and returns the pending cleanup.
func (rt *Runtime) startCleanup(mark func()) *Cleanup {
	m := rt.proc.Machine
	c := &Cleanup{rt: rt, ranges: rt.PreservedRanges()}
	pages := 0
	for _, r := range c.ranges {
		n := mem.PagesFor(r.Len)
		pages += n
		c.forkDirty = append(c.forkDirty, rt.proc.AS.DirtySetIn(mem.PageBase(r.Start), n)...)
	}
	slices.Sort(c.forkDirty)
	c.Fork = m.Model.ForkCoW(pages, len(c.forkDirty))
	m.Clock.Advance(c.Fork)

	c.heaps = append(c.heaps, rt.allocators...)
	if rt.mainHeap != nil {
		c.heaps = append(c.heaps, rt.mainHeap)
	}
	bg := m.Clock.RunOffline(func() {
		mark()
		visited := 0
		for _, h := range c.heaps {
			g, v := h.Collect()
			c.garbage = append(c.garbage, g)
			visited += v
		}
		m.Clock.Advance(time.Duration(visited) * m.Model.GCSweepPerChunk)
	})
	c.Due = m.Clock.Now() + bg
	return c
}

// DueBy reports whether the cleanup still has frees to land and its
// background work has finished by main-clock time now.
func (c *Cleanup) DueBy(now time.Duration) bool { return !c.Reclaimed && now >= c.Due }

// Reclaim frees the collected chunks. Called before Due it first waits —
// advances the main clock to Due — which is what tests and one-shot tools
// want; the recovery harness calls it at the first request boundary at or
// after Due. The main clock pays ForkPerPage for every preserved page first
// written while the fork was alive (its copy-on-write fault) and
// GCSweepPerChunk for every chunk freed. A collected pointer that is no
// longer a live chunk aborts (SIGABRT), so run it where a crash is handled.
// Reclaim is a no-op once the frees have landed.
func (c *Cleanup) Reclaim() {
	if c.Reclaimed {
		return
	}
	m := c.rt.proc.Machine
	m.Clock.AdvanceTo(c.Due)
	m.Clock.Advance(time.Duration(c.writtenSinceFork()) * m.Model.ForkPerPage)
	for i, h := range c.heaps {
		n, b := h.FreeAll(c.garbage[i])
		c.FreedChunks += n
		c.FreedBytes += b
	}
	c.garbage = nil
	m.Clock.Advance(time.Duration(c.FreedChunks) * m.Model.GCSweepPerChunk)
	c.Reclaimed, c.ReclaimedAt = true, m.Clock.Now()
}

// writtenSinceFork counts the preserved pages dirty now that were clean at
// fork time: the pages first written while the fork was alive. Within one
// incarnation only a rewind-domain discard clears a soft-dirty bit, restoring
// it with the page's bytes, so a page whose every write was rolled back is
// not counted.
func (c *Cleanup) writtenSinceFork() int {
	n := 0
	for _, r := range c.ranges {
		for _, p := range c.rt.proc.AS.DirtySetIn(mem.PageBase(r.Start), mem.PagesFor(r.Len)) {
			if _, copied := slices.BinarySearch(c.forkDirty, p); !copied {
				n++
			}
		}
	}
	return n
}

// Cleanup returns the cleanup FinishRecovery started in this incarnation,
// pending or reclaimed, or nil if it started none. A crash, exec or hot
// switch before the reclaim drops a pending cleanup with its Runtime; the
// successor's own cleanup finds the same garbage.
func (rt *Runtime) Cleanup() *Cleanup { return rt.cleanup }

// AwaitCleanup waits for this incarnation's cleanup and frees its garbage
// now (Reclaim), returning the cleanup, or nil if FinishRecovery started
// none.
func (rt *Runtime) AwaitCleanup() *Cleanup {
	if rt.cleanup != nil {
		rt.cleanup.Reclaim()
	}
	return rt.cleanup
}
