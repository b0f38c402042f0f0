// Quickstart: the minimal PHOENIX integration of Figure 2/3 — a process
// builds a hash table in simulated memory, crashes on a null dereference,
// and performs a PHOENIX-mode restart that preserves the table while
// resetting execution.
package main

import (
	"fmt"
	"log"

	"phoenix"
	"phoenix/internal/costmodel"
)

func main() {
	machine := phoenix.NewMachine(42)

	// Build the application "binary": one ordinary static plus nothing
	// fancy — the preserved state lives on the heap.
	b := phoenix.NewImageBuilder("quickstart", 0x0010_0000)
	b.Var("config", 64, phoenix.SecData)
	img := b.Build()

	proc, err := machine.Spawn(img)
	if err != nil {
		log.Fatal(err)
	}

	// --- first incarnation: phx_init, build state, serve, crash ---
	rt := phoenix.Init(proc, nil)
	h, err := rt.OpenHeap(phoenix.HeapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := phoenix.NewCtx(h, machine.Clock, costmodel.Default())
	table := phoenix.NewDict(ctx, 64)
	for i := 0; i < 10000; i++ {
		table.Set([]byte(fmt.Sprintf("key-%05d", i)), uint64(i))
	}
	fmt.Printf("built table with %d entries at simulated address %#x\n",
		table.Len(), uint64(table.Addr()))

	// The recovery-info block: root pointers the restart handler passes to
	// phx_restart. It must live in preserved memory (the heap).
	info := h.Alloc(16)
	proc.AS.WritePtr(info, table.Addr())

	// A request allocates a scratch buffer, then dereferences a null
	// pointer — SIGSEGV. Nothing reaches the buffer after the crash: it is
	// the garbage the successor's cleanup frees.
	crash := proc.Run(func() {
		h.Alloc(512)
		proc.AS.ReadU64(phoenix.NullPtr + 8)
	})
	fmt.Printf("crash: %s (%s)\n", crash.Reason, crash.Sig)

	// --- the restart handler's decision (Figure 2, lines 1-5) ---
	if !rt.AllSafe() {
		log.Fatal("would fall back to default recovery (mid-update crash)")
	}
	before := machine.Clock.Now()
	successor, err := rt.Restart(phoenix.RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		log.Fatal(err)
	}

	// --- second incarnation: main runs again, adopts preserved state ---
	rt2 := phoenix.Init(successor, nil)
	if !rt2.IsRecoveryMode() {
		log.Fatal("expected recovery mode")
	}
	h2, err := rt2.OpenHeap(phoenix.HeapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx2 := phoenix.NewCtx(h2, machine.Clock, costmodel.Default())
	recovered := phoenix.OpenDict(ctx2, successor.AS.ReadPtr(rt2.RecoveryInfo()))
	fmt.Printf("phoenix restart took %v (simulated)\n", machine.Clock.Now()-before)
	fmt.Printf("recovered table: %d entries, valid=%v\n", recovered.Len(), recovered.Validate())

	v, ok := recovered.Get([]byte("key-00042"))
	fmt.Printf("lookup key-00042 -> %d (found=%v)\n", v, ok)

	// Cleanup (phx_finish_recovery): the traversal marks what we keep. It
	// runs on a copy-on-write fork in the background, so the restart window
	// pays only the fork; AwaitCleanup waits for the background pass and
	// frees the rest.
	rt2.FinishRecovery(func() {
		recovered.Mark(nil)
		h2.Mark(rt2.RecoveryInfo())
	})
	c := rt2.AwaitCleanup()
	fmt.Printf("cleanup: fork %v on the restart window; freed %d chunks (%d bytes) at t=%v\n",
		c.Fork, c.FreedChunks, c.FreedBytes, c.ReclaimedAt)
}
