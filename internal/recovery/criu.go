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
// plus accounting of how many bytes the on-disk image occupies.
type CRIUImage struct {
	AS      *mem.AddressSpace
	Bytes   int64
	TakenAt time.Duration
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
	// The page dump is written as one sequential image.
	m.Disk.WriteFile(criuFile, make([]byte, 0))
	m.Clock.Advance(m.Model.DiskWrite(img.Bytes))
	return img
}

// CRIURestore reads the image back and reconstructs the process. Execution
// state resumes from the snapshot instant: all updates after TakenAt are
// lost, which is CRIU's staleness trade-off.
func CRIURestore(m *kernel.Machine, old *kernel.Process, img *CRIUImage) *kernel.Process {
	m.Clock.Advance(m.Model.DiskRead(img.Bytes))
	old.Kill()
	// Restore into a clone so the cached image can be restored again: the
	// restored process's writes copy its pages, never the image's.
	return m.Restore(old.Image, img.AS.Clone())
}
