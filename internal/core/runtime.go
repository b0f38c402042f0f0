// Package core implements the PHOENIX runtime library — the paper's primary
// contribution. It exposes the API surface of Table 2:
//
//	phx_init              → Init
//	phx_restart           → (*Runtime).Restart
//	phx_is_recovery_mode  → (*Runtime).IsRecoveryMode
//	phx_mark_preserve     → (*Runtime).MarkPreserve
//	phx_finish_recovery   → (*Runtime).FinishRecovery
//	phx_unsafe_begin/end  → (*Runtime).UnsafeBegin / UnsafeEnd (unsafe.go)
//	phx_stage             → (*Stages).Run (stages.go)
//	phx_create_allocator  → (*Runtime).CreateAllocator
//
// plus the cross-check validation machinery of §3.6 (crosscheck.go) and the
// in-memory redo log it relies on (redolog.go).
package core

import (
	"fmt"
	"time"

	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

// Runtime is the per-process PHOENIX context returned by Init. One Runtime
// exists per process incarnation; a restarted process calls Init again and
// receives a fresh Runtime that reports recovery mode.
type Runtime struct {
	proc *kernel.Process

	recoveryMode bool
	handoff      *kernel.Handoff

	mainHeap   *heap.Heap
	allocators []*heap.Heap
	nextRegion mem.VAddr

	unsafe       *UnsafeSet
	instrumented bool

	// restartedAt is the simulated time Init observed a PHOENIX-mode start;
	// used for the second-failure fallback rule (§3.2).
	restartedAt time.Duration

	finished bool
	cleanup  *Cleanup
}

// HandlerFunc is the user-defined restart handler registered with Init. It
// runs at crash time in the failing process: it inspects the crash and the
// unsafe-region state and either assembles a RestartPlan (PHOENIX-mode
// restart) or declines, sending the application to its default recovery.
type HandlerFunc func(rt *Runtime, ci *kernel.CrashInfo)

// Init initialises the PHOENIX context for proc and registers the restart
// handler for SIGSEGV and SIGABRT. Like phx_init, it simultaneously
// retrieves the information the terminated predecessor passed through
// preserve_exec: recovery mode and the recovery-info pointer.
func Init(proc *kernel.Process, handler HandlerFunc) *Runtime {
	rt := &Runtime{
		proc:       proc,
		handoff:    proc.Handoff(),
		unsafe:     NewUnsafeSet(),
		nextRegion: DefaultHeapBase,
	}
	if h := rt.handoff; h != nil && h.FallbackReason == "" && (h.MovedPages+h.CopiedPages) > 0 {
		rt.recoveryMode = true
		rt.restartedAt = proc.Machine.Clock.Now()
	}
	if handler != nil {
		wrap := func(ci *kernel.CrashInfo) { handler(rt, ci) }
		proc.OnSignal(kernel.SIGSEGV, wrap)
		proc.OnSignal(kernel.SIGABRT, wrap)
		proc.OnSignal(kernel.SIGALRM, wrap)
	}
	return rt
}

// DefaultHeapBase is where the first heap region is placed. Successive
// CreateAllocator regions are placed at RegionStride intervals above it.
const DefaultHeapBase = mem.VAddr(0x1000_0000)

// RegionStride is the address-space distance between allocator regions.
const RegionStride = mem.VAddr(0x4000_0000) // 1 GiB of room per region

// Proc returns the process this runtime belongs to.
func (rt *Runtime) Proc() *kernel.Process { return rt.proc }

// IsRecoveryMode reports whether the process was started by a PHOENIX-mode
// restart and recovery has not finished yet (phx_is_recovery_mode).
func (rt *Runtime) IsRecoveryMode() bool { return rt.recoveryMode && !rt.finished }

// RecoveryInfo returns the recovery-info pointer the failed process passed
// to Restart, or NullPtr on a fresh start.
func (rt *Runtime) RecoveryInfo() mem.VAddr {
	if rt.handoff == nil {
		return mem.NullPtr
	}
	return rt.handoff.InfoAddr
}

// FallbackReason returns the annotation carried by a non-PHOENIX restart
// ("" if none) — set when the prior incarnation declined preservation.
func (rt *Runtime) FallbackReason() string {
	if rt.handoff == nil {
		return ""
	}
	return rt.handoff.FallbackReason
}

// OpenHeap creates the process's main heap at DefaultHeapBase, attaching to
// preserved memory in recovery mode and creating a fresh heap otherwise.
// This is the "malloc regains control of the preserved heap" step (§3.2).
func (rt *Runtime) OpenHeap(opts heap.Options) (*heap.Heap, error) {
	var (
		h   *heap.Heap
		err error
	)
	if rt.IsRecoveryMode() {
		h, err = heap.Attach(rt.proc.AS, DefaultHeapBase, opts)
	} else {
		h, err = heap.New(rt.proc.AS, DefaultHeapBase, opts)
	}
	if err != nil {
		return nil, err
	}
	rt.mainHeap = h
	rt.nextRegion = DefaultHeapBase + RegionStride
	return h, nil
}

// MainHeap returns the heap registered by OpenHeap (nil before).
func (rt *Runtime) MainHeap() *heap.Heap { return rt.mainHeap }

// CreateAllocator creates (or, in recovery mode, reattaches) a PHOENIX
// allocator with its own managed preserve ranges (phx_create_allocator).
// Allocator regions are assigned deterministic bases in creation order, so
// the post-restart process reattaches by re-creating them in the same order.
func (rt *Runtime) CreateAllocator(opts heap.Options) (*heap.Heap, error) {
	base := rt.nextRegion
	rt.nextRegion += RegionStride
	var (
		h   *heap.Heap
		err error
	)
	if rt.IsRecoveryMode() {
		h, err = heap.Attach(rt.proc.AS, base, opts)
	} else {
		h, err = heap.New(rt.proc.AS, base, opts)
	}
	if err != nil {
		return nil, err
	}
	rt.allocators = append(rt.allocators, h)
	return h, nil
}

// Allocators returns the PHOENIX allocators created so far.
func (rt *Runtime) Allocators() []*heap.Heap { return rt.allocators }

// MarkPreserve marks the heap object at addr as reachable so FinishRecovery's
// cleanup keeps it (phx_mark_preserve). The object must belong to
// the main heap or one of the created allocators.
func (rt *Runtime) MarkPreserve(addr mem.VAddr) {
	h := rt.heapOf(addr)
	if h == nil {
		panic(&kernel.Crash{Sig: kernel.SIGABRT,
			Reason: fmt.Sprintf("phx_mark_preserve: %#x not in any registered heap", uint64(addr))})
	}
	h.Mark(addr)
}

func (rt *Runtime) heapOf(addr mem.VAddr) *heap.Heap {
	check := func(h *heap.Heap) bool {
		for _, r := range h.PreservedRanges() {
			if addr >= r.Start && addr < r.End() {
				return true
			}
		}
		return false
	}
	if rt.mainHeap != nil && check(rt.mainHeap) {
		return rt.mainHeap
	}
	for _, h := range rt.allocators {
		if check(h) {
			return h
		}
	}
	return nil
}

// FinishRecovery resets the recovery-mode flag (phx_finish_recovery). A
// non-nil mark starts the §3.4 mark-and-sweep cleanup over every registered
// heap: mark is the application's traversal, which calls MarkPreserve (or
// Heap.Mark) on every chunk reachable from its roots. The cleanup runs off
// the restart window (see Cleanup): this call charges only a copy-on-write
// fork of the preserved pages, and the unmarked chunks are freed later, by
// Cleanup().Reclaim. A nil mark, or a start outside recovery mode, runs no
// cleanup. A crash inside mark propagates to the caller, as any crash in
// Main does.
func (rt *Runtime) FinishRecovery(mark func()) {
	if mark != nil && rt.IsRecoveryMode() {
		rt.cleanup = rt.startCleanup(mark)
	}
	rt.finished = true
}

// RestartPlan is what a restart handler assembles before calling Restart —
// the options of phx_restart (Table 2).
type RestartPlan struct {
	// InfoAddr is the recovery-info pointer. It must point into preserved
	// memory (typically a heap allocation holding root pointers).
	InfoAddr mem.VAddr
	// WithHeap preserves every page of the main heap (with_heap).
	WithHeap bool
	// WithSection preserves the image's .phx.data/.phx.bss sections.
	WithSection bool
	// Ranges are additional custom ranges (the raw interface of §3.3).
	Ranges []linker.Range
	// Allocators are PHOENIX allocators whose managed ranges are preserved.
	Allocators []*heap.Heap
	// SkipIntegrityVerify turns preserve_exec's integrity checksums off: no
	// sums are staged or verified (kernel.ExecSpec.SkipVerify). Only the
	// driver sets it, from its DisableChecksums configuration.
	SkipIntegrityVerify bool
}

// Restart performs the PHOENIX-mode restart: it gathers the preserved page
// set from the plan and invokes preserve_exec, returning the successor
// process (phx_restart). The caller — normally the recovery driver — then
// re-enters the application's main function on the new process.
func (rt *Runtime) Restart(plan RestartPlan) (*kernel.Process, error) {
	spec, err := rt.ResolveSpec(plan)
	if err != nil {
		return nil, err
	}
	return rt.proc.PreserveExec(spec)
}

// ResolveSpec expands a restart plan into the concrete preserve_exec spec —
// heap and allocator ranges gathered at call time — without executing it.
// Restart uses it on the crash path; live shard migration re-resolves it
// every copy round so the tracked page set follows the live heap.
func (rt *Runtime) ResolveSpec(plan RestartPlan) (kernel.ExecSpec, error) {
	spec := kernel.ExecSpec{
		InfoAddr:    plan.InfoAddr,
		WithSection: plan.WithSection,
		SkipVerify:  plan.SkipIntegrityVerify,
	}
	if plan.WithHeap {
		if rt.mainHeap == nil {
			return kernel.ExecSpec{}, fmt.Errorf("core: Restart with_heap but no heap opened")
		}
		spec.Ranges = append(spec.Ranges, rt.mainHeap.PreservedRanges()...)
	}
	for _, h := range plan.Allocators {
		spec.Ranges = append(spec.Ranges, h.PreservedRanges()...)
	}
	spec.Ranges = append(spec.Ranges, plan.Ranges...)
	return spec, nil
}

// Fallback tears the process down with a plain restart carrying reason —
// the path taken when the recovery condition fails (§3.5) or when a
// PHOENIX-restarted process fails again shortly after recovery (§3.2).
func (rt *Runtime) Fallback(reason string) (*kernel.Process, error) {
	return rt.proc.Exec(reason)
}

// SecondFailureGrace is the window after a PHOENIX restart within which
// another failure triggers an automatic fallback instead of a second
// PHOENIX attempt (§3.2).
const SecondFailureGrace = 10 * time.Second

// DisarmGrace marks this incarnation as a planned handoff — a live
// migration adoption — rather than a failure recovery. The §3.2 rule
// guards against crash loops (a preserved state that keeps crashing its
// successor), but nothing failed on the way into an adopted start, so the
// next crash is a first failure and deserves a full PHOENIX attempt.
func (rt *Runtime) DisarmGrace() { rt.restartedAt = 0 }

// WithinGrace reports whether the current failure falls inside the
// second-failure window of a PHOENIX-mode start.
func (rt *Runtime) WithinGrace() bool {
	if rt.handoff == nil || rt.handoff.FallbackReason != "" || rt.restartedAt == 0 {
		return false
	}
	return rt.proc.Machine.Clock.Now()-rt.restartedAt < SecondFailureGrace
}

// WasPhoenixStart reports whether this incarnation came from a PHOENIX-mode
// restart (independent of FinishRecovery having run).
func (rt *Runtime) WasPhoenixStart() bool {
	h := rt.handoff
	return h != nil && h.FallbackReason == "" && (h.MovedPages+h.CopiedPages) > 0
}

// PreservedRanges returns the ranges the current incarnation received from
// preserve_exec (empty on fresh starts).
func (rt *Runtime) PreservedRanges() []linker.Range {
	if rt.handoff == nil {
		return nil
	}
	return rt.handoff.Ranges
}
