package core

import (
	"fmt"
	"testing"
	"time"

	"phoenix/internal/costmodel"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/mem"
	"phoenix/internal/simds"
)

// cleanupHeap builds a heap holding a dictionary of blobs (a few of them
// large) plus unreachable small and large chunks, restarts it through
// preserve_exec, and returns the successor with its info block, whose first
// word is the dictionary root.
func cleanupHeap(t *testing.T) (*kernel.Process, *Runtime, *heap.Heap, mem.VAddr) {
	t.Helper()
	_, p := newProc(t)
	rt := Init(p, nil)
	h, err := rt.OpenHeap(heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := simds.NewCtx(h, nil, costmodel.Default())
	d := simds.NewDict(ctx, 64)
	for i := 0; i < 600; i++ {
		size := 16 + i*37%3000
		if i%150 == 0 {
			size = 90 << 10
		}
		d.Set([]byte(fmt.Sprintf("k%04d", i)), uint64(ctx.NewBlob(make([]byte, size))))
		if i%4 == 0 {
			h.Alloc(8 + i*53%5000) // garbage
		}
	}
	h.Alloc(120 << 10) // large garbage
	info := h.Alloc(16)
	p.AS.WritePtr(info, d.Addr())
	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	h2, err := rt2.OpenHeap(heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return np, rt2, h2, rt2.RecoveryInfo()
}

// markDict is the test application's cleanup traversal.
func markDict(h *heap.Heap, info mem.VAddr) {
	d := simds.OpenDict(simds.NewCtx(h, nil, costmodel.Default()), h.AS().ReadPtr(info))
	d.Mark(func(val uint64) { h.Mark(mem.VAddr(val)) })
	h.Mark(info)
}

// inUse lists the payload of every in-use chunk of h, in walk order.
func inUse(h *heap.Heap) []mem.VAddr {
	var out []mem.VAddr
	h.Walk(func(p mem.VAddr, _ int, used, _ bool) bool {
		if used {
			out = append(out, p)
		}
		return true
	})
	return out
}

// On the same preserved heap, the background cleanup frees exactly the
// chunks and bytes a synchronous mark-and-sweep frees, and charges the main
// clock only the fork until its frees land.
func TestCleanupFreesWhatASynchronousSweepFrees(t *testing.T) {
	np, rt, h, info := cleanupHeap(t)
	ref, err := heap.Attach(np.AS.Clone(), DefaultHeapBase, heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	markDict(ref, info)
	wantChunks, wantBytes, visited := ref.Sweep()
	if wantChunks < 100 {
		t.Fatalf("reference sweep freed only %d chunks; the fixture plants more garbage", wantChunks)
	}

	m := np.Machine
	start := m.Clock.Now()
	rt.FinishRecovery(func() { markDict(h, info) })
	c := rt.Cleanup()
	if m.Clock.Now()-start != c.Fork {
		t.Fatalf("FinishRecovery charged %v, want only the fork %v", m.Clock.Now()-start, c.Fork)
	}
	// The traversal charges nothing here (its context has no clock), so the
	// background work is the collecting walk alone.
	if bg := c.Due - m.Clock.Now(); bg != time.Duration(visited)*m.Model.GCSweepPerChunk {
		t.Fatalf("background pass takes %v, want %d visited chunks' sweep", bg, visited)
	}
	if len(inUse(h)) != len(inUse(ref))+wantChunks {
		t.Fatal("FinishRecovery freed chunks before the reclaim")
	}

	rt.AwaitCleanup()
	if c.FreedChunks != wantChunks || c.FreedBytes != wantBytes {
		t.Fatalf("cleanup freed %d chunks (%d bytes), synchronous sweep %d (%d)",
			c.FreedChunks, c.FreedBytes, wantChunks, wantBytes)
	}
	if got := c.ReclaimedAt - c.Due; got != time.Duration(wantChunks)*m.Model.GCSweepPerChunk {
		t.Fatalf("reclaim charged %v, want one sweep step per freed chunk", got)
	}
	got, want := inUse(h), inUse(ref)
	if len(got) != len(want) {
		t.Fatalf("%d chunks in use after the cleanup, %d after the sweep", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("in-use chunk %d at %#x after the cleanup, %#x after the sweep", i, got[i], want[i])
		}
	}
	if h.Stats() != ref.Stats() {
		t.Fatalf("heap stats %+v after the cleanup, %+v after the sweep", h.Stats(), ref.Stats())
	}
}

// The fork shares clean pages until first written: the reclaim charges one
// ForkPerPage for each preserved page first written while the fork was
// alive, however often it was written, and nothing for pages already dirty
// (and so copied) at fork time.
func TestCleanupReclaimChargesPagesWrittenDuringFork(t *testing.T) {
	reclaimCharge := func(dirtyBefore, writtenAfter int) time.Duration {
		np, rt, h, info := cleanupHeap(t)
		// Rewrite a byte of page i of the preserved brk arena in place.
		touch := func(i int) {
			a := DefaultHeapBase + mem.VAddr(64+i)*mem.PageSize + 1
			np.AS.WriteU8(a, np.AS.ReadU8(a))
		}
		for i := 0; i < dirtyBefore; i++ {
			touch(i)
		}
		rt.FinishRecovery(func() { markDict(h, info) })
		for i := 0; i < writtenAfter; i++ {
			touch(i)
			touch(i)
		}
		c := rt.AwaitCleanup()
		return c.ReclaimedAt - c.Due
	}
	m := costmodel.Default()
	none := reclaimCharge(0, 0)
	if got := reclaimCharge(0, 5) - none; got != 5*m.ForkPerPage {
		t.Fatalf("5 pages written during the fork added %v, want %v", got, 5*m.ForkPerPage)
	}
	if got := reclaimCharge(5, 5) - none; got != 0 {
		t.Fatalf("rewriting pages dirty at fork time added %v, want 0", got)
	}
}
