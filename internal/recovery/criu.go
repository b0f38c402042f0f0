// Package recovery orchestrates a simulated application under a workload,
// injects failures, and drives one of four recovery mechanisms — Vanilla
// restart, the application's Builtin persistence, CRIU-style full-process
// checkpointing, or PHOENIX — recording a service timeline for the
// availability metrics of §4.3.
package recovery

import (
	"time"

	"phoenix/internal/kernel"
	"phoenix/internal/mem"
)

// CRIUImage is a full-process checkpoint: a clone of the address space, its
// page buffers shared copy-on-write with the dumped process (mem.Clone),
// plus accounting of how many bytes the on-disk image occupies. In
// incremental mode an image may be a delta on top of a parent chain: Bytes is
// what *this* snapshot wrote, ChainBytes the cumulative chain a restore must
// read back (equal to Bytes for a full snapshot).
type CRIUImage struct {
	AS         *mem.AddressSpace
	Bytes      int64
	ChainBytes int64
	TakenAt    time.Duration
}

// criuFile is the simulated on-disk image name.
const criuFile = "criu.img"

// CRIUSnapshot freezes the process and dumps its memory: the application is
// paused for the freeze cost plus the sequential write of every resident
// page — CRIU's runtime overhead source (Table 8) and its downtime advantage
// over data-format unmarshalling (§4.3.3).
func CRIUSnapshot(p *kernel.Process) *CRIUImage {
	m := p.Machine
	m.Clock.Advance(m.Model.FreezeFixed)
	img := &CRIUImage{
		AS:      p.AS.Clone(),
		Bytes:   int64(p.AS.ResidentPages()) * mem.PageSize,
		TakenAt: m.Clock.Now(),
	}
	img.ChainBytes = img.Bytes
	// The page dump is written as one sequential image.
	m.Disk.WriteFile(criuFile, make([]byte, 0))
	m.Clock.Advance(m.Model.DiskWrite(img.Bytes))
	return img
}

// CRIUSnapshotIncremental takes a soft-dirty-driven delta checkpoint: the
// freeze still stops the world, but only pages dirtied since prev are dumped,
// so steady-state snapshot overhead scales with the write rate — the same win
// incremental preservation gives PHOENIX, kept in the baseline so the
// comparison stays fair. The first snapshot (prev == nil) is a full dump that
// establishes the baseline. Every snapshot clears the process's soft-dirty
// bits; the restore cost is the whole chain (ChainBytes), which is the
// classic incremental-checkpoint trade-off.
func CRIUSnapshotIncremental(p *kernel.Process, prev *CRIUImage) *CRIUImage {
	if prev == nil {
		// Full baseline dump. Clear the bits before cloning so both the live
		// process and the image record "clean as of this dump": a restore
		// from the image then deltas correctly against the chain.
		p.AS.ClearAllDirty()
		return CRIUSnapshot(p)
	}
	m := p.Machine
	m.Clock.Advance(m.Model.FreezeFixed)
	dirty := int64(p.AS.DirtyPages()) * mem.PageSize
	p.AS.ClearAllDirty()
	img := &CRIUImage{
		AS:      p.AS.Clone(),
		Bytes:   dirty,
		TakenAt: m.Clock.Now(),
	}
	img.ChainBytes = prev.ChainBytes + img.Bytes
	m.Disk.WriteFile(criuFile, make([]byte, 0))
	m.Clock.Advance(m.Model.DiskWrite(img.Bytes))
	return img
}

// CRIURestore reads the image back and reconstructs the process. Execution
// state resumes from the snapshot instant: all updates after TakenAt are
// lost, which is CRIU's staleness trade-off. For an incremental image the
// read covers the full parent chain, not just the last delta.
func CRIURestore(m *kernel.Machine, old *kernel.Process, img *CRIUImage) *kernel.Process {
	m.Clock.Advance(m.Model.DiskRead(img.ChainBytes))
	old.Kill()
	// Restore into a clone so the cached image can be restored again: the
	// restored process's writes copy its pages, never the image's.
	return m.Restore(old.Image, img.AS.Clone())
}
