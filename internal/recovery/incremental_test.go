package recovery

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"phoenix/internal/kernel"
	"phoenix/internal/mem"
)

// TestCRIUSnapshotIncrementalDeltas pins the delta accounting: the first
// snapshot is a full dump, later ones write only pages dirtied since, and the
// restore pays for the whole chain.
func TestCRIUSnapshotIncrementalDeltas(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages = 100
	m := kernel.NewMachine(1)
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}

	base := CRIUSnapshotIncremental(p, nil)
	if base.Bytes != pages*mem.PageSize || base.ChainBytes != base.Bytes {
		t.Fatalf("baseline: Bytes=%d ChainBytes=%d, want full %d", base.Bytes, base.ChainBytes, pages*mem.PageSize)
	}
	if p.AS.DirtyPages() != 0 {
		t.Fatal("baseline snapshot left dirty bits set")
	}

	// Touch 3 pages; the delta dumps exactly those.
	for i := 0; i < 3; i++ {
		p.AS.WriteU64(region+mem.VAddr(i*10)*mem.PageSize, 0xABC)
	}
	before := m.Clock.Now()
	delta := CRIUSnapshotIncremental(p, base)
	snapCost := m.Clock.Now() - before
	if delta.Bytes != 3*mem.PageSize {
		t.Fatalf("delta Bytes = %d, want %d", delta.Bytes, 3*mem.PageSize)
	}
	if delta.ChainBytes != base.ChainBytes+delta.Bytes {
		t.Fatalf("ChainBytes = %d, want cumulative %d", delta.ChainBytes, base.ChainBytes+delta.Bytes)
	}
	// The file-creation write charges one disk-latency unit on top of the
	// modelled sequential dump.
	if want := m.Model.FreezeFixed + m.Model.DiskWrite(0) + m.Model.DiskWrite(delta.Bytes); snapCost != want {
		t.Fatalf("delta snapshot charged %v, want %v", snapCost, want)
	}
	// Snapshot pause scales with the write rate, not the resident set.
	fullCost := m.Model.FreezeFixed + m.Model.DiskWrite(0) + m.Model.DiskWrite(base.Bytes)
	if snapCost >= fullCost {
		t.Fatalf("delta snapshot %v not cheaper than full %v", snapCost, fullCost)
	}

	// Restore pays for the chain and reproduces the latest content.
	before = m.Clock.Now()
	np := CRIURestore(m, p, delta)
	restoreCost := m.Clock.Now() - before
	if want := m.Model.DiskRead(delta.ChainBytes) + m.Model.Exec(); restoreCost != want {
		t.Fatalf("restore charged %v, want chain read %v", restoreCost, want)
	}
	if got := np.AS.ReadU64(region); got != 0xABC {
		t.Fatalf("restored content %#x, want delta content", got)
	}
	if got := np.AS.ReadU64(region + 5*mem.PageSize); got != 6 {
		t.Fatalf("restored untouched page reads %#x, want baseline content", got)
	}
}

// TestCRIUImageRestoresTwice: an image shares its pages with the live process
// and with every process restored from it, copy-on-write. Writes by the live
// process after the dump, and by the first restored process, must leave the
// image intact, so a second restore reads exactly what the first did.
func TestCRIUImageRestoresTwice(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages = 8
	m := kernel.NewMachine(1)
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	img := CRIUSnapshot(p)
	want := p.AS.ReadBytes(region, pages*mem.PageSize)
	scribble := func(as *mem.AddressSpace, v uint64) {
		for i := 0; i < pages; i++ {
			as.WriteU64(region+mem.VAddr(i)*mem.PageSize+8, v)
			as.FlipBit(region+mem.VAddr(i)*mem.PageSize, 0)
		}
	}

	scribble(p.AS, 0xDEAD) // the live process writes every dumped page
	first := CRIURestore(m, p, img)
	if got := first.AS.ReadBytes(region, pages*mem.PageSize); !bytes.Equal(got, want) {
		t.Fatal("first restore differs from the dumped image")
	}
	scribble(first.AS, 0xBEEF) // so does the first restored process
	second := CRIURestore(m, first, img)
	if got := second.AS.ReadBytes(region, pages*mem.PageSize); !bytes.Equal(got, want) {
		t.Fatal("second restore differs from the first: a write reached the image")
	}
	if got := first.AS.ReadU64(region + 8); got != 0xBEEF {
		t.Fatalf("first restored process reads %#x, want its own write", got)
	}
}

// TestIncrementalCheckpointHarness runs the builtin-checkpoint baseline end to
// end in incremental mode: recovery still works, and the steady-state
// snapshots are deltas.
func TestIncrementalCheckpointHarness(t *testing.T) {
	h, app := harness(t, Config{
		Mode:                  ModeCRIU,
		CheckpointInterval:    time.Millisecond,
		IncrementalCheckpoint: true,
	})
	h.RunRequests(100)
	if h.Stat.CheckpointsTaken < 2 {
		t.Fatalf("only %d snapshots taken", h.Stat.CheckpointsTaken)
	}
	// Steady state: the toy app dirties a single counter page per interval,
	// so the latest image is a one-page delta on a longer chain.
	img := h.criuImage
	if img.Bytes >= img.ChainBytes {
		t.Fatalf("latest snapshot is not a delta: Bytes=%d ChainBytes=%d", img.Bytes, img.ChainBytes)
	}
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if app.value() < 80 {
		t.Fatalf("incremental criu lost too much: %d", app.value())
	}
}

// TestIncrementalCheckpointValidation: the knob is CRIU-only.
func TestIncrementalCheckpointValidation(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeBuiltin, ModePhoenix} {
		err := Config{Mode: mode, IncrementalCheckpoint: true}.Validate()
		if err == nil || !strings.Contains(err.Error(), "IncrementalCheckpoint") {
			t.Fatalf("mode %v: IncrementalCheckpoint accepted: %v", mode, err)
		}
	}
	if err := (Config{Mode: ModeCRIU, IncrementalCheckpoint: true}).Validate(); err != nil {
		t.Fatalf("CRIU incremental rejected: %v", err)
	}
}
