package recovery

import (
	"bytes"
	"testing"

	"phoenix/internal/kernel"
	"phoenix/internal/mem"
)

// TestCRIUImageRestoresTwice: an image shares its pages with the live process
// and with every process restored from it, copy-on-write. Writes by the live
// process after the dump, and by the first restored process, must leave the
// image intact, so a second restore reads exactly what the first did. The
// dump pays the freeze, the image file's creation and a sequential write of
// every resident page; each restore reads the whole image back and execs.
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
	resident := int64(p.AS.ResidentPages()) * mem.PageSize
	before := m.Clock.Now()
	img := CRIUSnapshot(p)
	if img.Bytes != resident {
		t.Fatalf("image Bytes = %d, want the %d resident bytes", img.Bytes, resident)
	}
	if got, want := m.Clock.Now()-before, m.Model.FreezeFixed+m.Model.DiskWrite(0)+m.Model.DiskWrite(img.Bytes); got != want {
		t.Fatalf("dump charged %v, want %v", got, want)
	}
	want := p.AS.ReadBytes(region, pages*mem.PageSize)
	scribble := func(as *mem.AddressSpace, v uint64) {
		for i := 0; i < pages; i++ {
			as.WriteU64(region+mem.VAddr(i)*mem.PageSize+8, v)
			as.FlipBit(region+mem.VAddr(i)*mem.PageSize, 0)
		}
	}
	restore := func(old *kernel.Process) *kernel.Process {
		t.Helper()
		before := m.Clock.Now()
		np := CRIURestore(m, old, img)
		if got, want := m.Clock.Now()-before, m.Model.DiskRead(img.Bytes)+m.Model.Exec(); got != want {
			t.Fatalf("restore charged %v, want %v", got, want)
		}
		return np
	}

	scribble(p.AS, 0xDEAD) // the live process writes every dumped page
	first := restore(p)
	if got := first.AS.ReadBytes(region, pages*mem.PageSize); !bytes.Equal(got, want) {
		t.Fatal("first restore differs from the dumped image")
	}
	scribble(first.AS, 0xBEEF) // so does the first restored process
	second := restore(first)
	if got := second.AS.ReadBytes(region, pages*mem.PageSize); !bytes.Equal(got, want) {
		t.Fatal("second restore differs from the first: a write reached the image")
	}
	if got := first.AS.ReadU64(region + 8); got != 0xBEEF {
		t.Fatalf("first restored process reads %#x, want its own write", got)
	}
}
