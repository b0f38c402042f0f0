package phoenix

import (
	"fmt"
	"testing"

	"phoenix/internal/costmodel"
)

// TestPublicAPIRoundTrip drives the whole public surface: build an image
// with a phxsec static, spawn, allocate state, crash, PHOENIX-restart with
// heap and section preservation, and recover.
func TestPublicAPIRoundTrip(t *testing.T) {
	m := NewMachine(1)
	b := NewImageBuilder("api-test", 0x0010_0000)
	b.Var("plain", 8, SecData)
	pools := b.Var("pools", 64, SecPhxData)
	proc, err := m.Spawn(b.Build())
	if err != nil {
		t.Fatal(err)
	}

	rt := Init(proc, nil)
	if rt.IsRecoveryMode() {
		t.Fatal("fresh start in recovery mode")
	}
	h, err := rt.OpenHeap(HeapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(h, m.Clock, costmodel.Default())
	d := NewDict(ctx, 64)
	for i := 0; i < 500; i++ {
		d.Set([]byte(fmt.Sprintf("k%03d", i)), uint64(i))
	}
	proc.AS.WriteU64(pools.Addr, 77)
	info := h.Alloc(16)
	proc.AS.WritePtr(info, d.Addr())

	// Unsafe regions through the facade.
	rt.UnsafeBegin("comp")
	if rt.AllSafe() {
		t.Fatal("AllSafe inside region")
	}
	rt.UnsafeEnd("comp")

	// Crash and recover.
	ci := proc.Run(func() { proc.AS.ReadU64(NullPtr + 16) })
	if ci == nil || ci.Sig != SIGSEGV {
		t.Fatalf("crash = %+v", ci)
	}
	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true, WithSection: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	if !rt2.IsRecoveryMode() {
		t.Fatal("successor not in recovery mode")
	}
	h2, err := rt2.OpenHeap(HeapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := NewCtx(h2, m.Clock, costmodel.Default())
	d2 := OpenDict(ctx2, np.AS.ReadPtr(rt2.RecoveryInfo()))
	if d2.Len() != 500 || !d2.Validate() {
		t.Fatal("dictionary lost across restart")
	}
	if np.AS.ReadU64(pools.Addr) != 77 {
		t.Fatal("phxsec static lost across restart")
	}
	rt2.FinishRecovery(func() {
		d2.Mark(nil)
		h2.Mark(rt2.RecoveryInfo())
	})
	if c := rt2.AwaitCleanup(); c == nil || c.FreedChunks != 0 {
		t.Fatalf("cleanup of a heap with no garbage: %+v", c)
	}
}

// TestAllocatorComponentSeparation exercises phx_create_allocator: two
// components in separate allocator regions, only one preserved.
func TestAllocatorComponentSeparation(t *testing.T) {
	m := NewMachine(2)
	b := NewImageBuilder("alloc-test", 0x0010_0000)
	b.Var("cfg", 8, SecData)
	proc, _ := m.Spawn(b.Build())
	rt := Init(proc, nil)
	if _, err := rt.OpenHeap(HeapOptions{}); err != nil {
		t.Fatal(err)
	}
	keepAlloc, err := rt.CreateAllocator(HeapOptions{Name: "keep"})
	if err != nil {
		t.Fatal(err)
	}
	dropAlloc, err := rt.CreateAllocator(HeapOptions{Name: "drop"})
	if err != nil {
		t.Fatal(err)
	}
	kept := keepAlloc.Alloc(64)
	dropped := dropAlloc.Alloc(64)
	proc.AS.WriteU64(kept, 1)
	proc.AS.WriteU64(dropped, 2)
	info := rt.MainHeap().Alloc(16)
	proc.AS.WritePtr(info, kept)

	np, err := rt.Restart(RestartPlan{
		InfoAddr:   info,
		WithHeap:   true,
		Allocators: []*Heap{keepAlloc}, // "drop" is discarded
	})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	if np.AS.ReadU64(np.AS.ReadPtr(rt2.RecoveryInfo())) != 1 {
		t.Fatal("kept component lost")
	}
	// The dropped component's address faults — its pages were discarded.
	if ci := np.Run(func() { np.AS.ReadU64(dropped) }); ci == nil {
		t.Fatal("dropped component still mapped")
	}
}

// TestCompareDumpsFacade sanity-checks the re-exported helper.
func TestCompareDumpsFacade(t *testing.T) {
	ok, _ := CompareDumps(StateDump{"a": "1"}, StateDump{"a": "1"}, nil)
	if !ok {
		t.Fatal("equal dumps diverged")
	}
}
