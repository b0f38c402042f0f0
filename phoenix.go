// Package phoenix is the public API of the PHOENIX reproduction: optimistic
// custom recovery for high-availability software via partial process state
// preservation (SOSP 2025).
//
// PHOENIX adds a fast recovery path to an application: on failure, the
// process restarts from main like a normal restart — discarding transient
// state and resetting execution — but selectively carries its large,
// long-lived data structures into the new process at their original virtual
// addresses, skipping the expensive state reconstruction that dominates
// restart downtime and warm-up.
//
// The package re-exports the runtime library (phx_init, phx_restart,
// unsafe regions, stage-based progress recovery, cross-check validation)
// together with the simulated substrate it runs on — virtual memory, a
// simulated kernel with the preserve_exec system call, a malloc-style heap,
// and data structures that live in simulated memory. See DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper-vs-measured evaluation.
//
// Quickstart (see examples/quickstart for the full program):
//
//	machine := phoenix.NewMachine(1)
//	proc, _ := machine.Spawn(image)
//	rt := phoenix.Init(proc, nil)
//	heap, _ := rt.OpenHeap(phoenix.HeapOptions{})
//	// ... build state in simulated memory, then on failure:
//	successor, _ := rt.Restart(phoenix.RestartPlan{InfoAddr: info, WithHeap: true})
package phoenix

import (
	"phoenix/internal/core"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/simds"
)

// Core runtime (Table 2 APIs).
type (
	// Runtime is the per-process PHOENIX context (phx_init's result).
	Runtime = core.Runtime
	// RestartPlan parameterises a PHOENIX-mode restart (phx_restart).
	RestartPlan = core.RestartPlan
	// Stages is the stage-based progress-recovery tracker (phx_stage).
	Stages = core.Stages
	// StageVault backs SAVE/RESTORE hooks: preserved pre-images for stage
	// bodies that mutate state in place (Figure 8's basic pattern).
	StageVault = core.StageVault
	// RedoLog is the in-memory redo log backing cross-check validation.
	RedoLog = core.RedoLog
	// CrossCheckSpec wires an application into background validation.
	CrossCheckSpec = core.CrossCheckSpec
	// Verdict is a cross-check outcome.
	Verdict = core.Verdict
	// StateDump is a logical application-state snapshot used in validation.
	StateDump = core.StateDump
	// UnsafeSet tracks per-component unsafe-region counters.
	UnsafeSet = core.UnsafeSet
)

// Init initialises the PHOENIX context for a process (phx_init).
var Init = core.Init

// CompareDumps compares two state dumps at the data-structure level.
var CompareDumps = core.CompareDumps

// DefaultHeapBase is where a process's main heap region is placed.
const DefaultHeapBase = core.DefaultHeapBase

// Simulated OS substrate.
type (
	// Machine is the simulated host (clock, cost model, disk, processes).
	Machine = kernel.Machine
	// Process is one simulated process.
	Process = kernel.Process
	// CrashInfo describes a caught failure.
	CrashInfo = kernel.CrashInfo
	// Crash is the panic value for non-memory application failures.
	Crash = kernel.Crash
	// ExecSpec parameterises the preserve_exec system call directly.
	ExecSpec = kernel.ExecSpec
	// Signal is a POSIX-style signal number.
	Signal = kernel.Signal
)

// NewMachine boots a simulated machine with a deterministic seed.
var NewMachine = kernel.NewMachine

// Signals PHOENIX hooks.
const (
	SIGSEGV = kernel.SIGSEGV
	SIGABRT = kernel.SIGABRT
	SIGALRM = kernel.SIGALRM
)

// Memory and binary-image substrate.
type (
	// VAddr is a simulated virtual address.
	VAddr = mem.VAddr
	// AddressSpace is a process's simulated virtual memory.
	AddressSpace = mem.AddressSpace
	// Fault is the panic value for invalid simulated-memory accesses.
	Fault = mem.Fault
	// Image is a simulated binary with sections (including .phx.data/.bss).
	Image = linker.Image
	// ImageBuilder lays out images and phxsec static variables.
	ImageBuilder = linker.Builder
	// StaticVar is a named static placed in a section.
	StaticVar = linker.StaticVar
	// Range is a byte range of simulated memory.
	Range = linker.Range
)

// NullPtr is the canonical nil simulated pointer.
const NullPtr = mem.NullPtr

// PageSize is the simulated page size.
const PageSize = mem.PageSize

// NewImageBuilder starts an image layout (see linker.NewBuilder).
var NewImageBuilder = linker.NewBuilder

// Section kinds for ImageBuilder.Var — SecPhxData/SecPhxBSS are the
// PHOENIX-preserved sections the phxsec annotation targets.
const (
	SecData    = linker.SecData
	SecBSS     = linker.SecBSS
	SecPhxData = linker.SecPhxData
	SecPhxBSS  = linker.SecPhxBSS
)

// Heap substrate.
type (
	// Heap is the simulated malloc (glibc-style; the PHOENIX marker sits in
	// a transient side bitmap, never in preserved pages).
	Heap = heap.Heap
	// HeapOptions configures a heap region.
	HeapOptions = heap.Options
)

// Data structures in simulated memory.
type (
	// Ctx bundles the accessors simulated-memory data structures need.
	Ctx = simds.Ctx
	// Dict is a hash table in simulated memory.
	Dict = simds.Dict
	// Skiplist is an ordered map in simulated memory.
	Skiplist = simds.Skiplist
	// List is an intrusive doubly-linked list in simulated memory.
	List = simds.List
)

// Constructors for simulated-memory data structures.
var (
	NewCtx         = simds.NewCtx
	NewDict        = simds.NewDict
	OpenDict       = simds.OpenDict
	NewSkiplist    = simds.NewSkiplist
	OpenSkiplist   = simds.OpenSkiplist
	NewList        = simds.NewList
	OpenList       = simds.OpenList
	NewRedoLog     = core.NewRedoLog
	OpenRedoLog    = core.OpenRedoLog
	NewStageVault  = core.NewStageVault
	OpenStageVault = core.OpenStageVault
)
