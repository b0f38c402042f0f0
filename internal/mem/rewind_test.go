package mem

import (
	"bytes"
	"testing"
)

const rwBase = VAddr(0x40_0000)

func newRewindSpace(t testing.TB, pages int) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	if _, err := as.Map(rwBase, pages, KindCustom, "rw"); err != nil {
		t.Fatalf("Map: %v", err)
	}
	return as
}

// snapshot captures the observable state of a page range: bytes, residency,
// dirty bits, and checksums.
type rwPageState struct {
	data     []byte
	resident bool
	dirty    bool
	sum      uint64
}

func snapshotRange(as *AddressSpace, pages int) []rwPageState {
	out := make([]rwPageState, pages)
	for i := 0; i < pages; i++ {
		p := PageOf(rwBase) + PageNum(i)
		out[i] = rwPageState{
			data:     as.ReadBytes(rwBase+VAddr(i)*PageSize, PageSize),
			resident: as.PageResident(p),
			dirty:    as.PageDirty(p),
			sum:      as.PageChecksum(p),
		}
	}
	return out
}

func requireState(t *testing.T, as *AddressSpace, want []rwPageState, what string) {
	t.Helper()
	got := snapshotRange(as, len(want))
	for i := range want {
		if !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("%s: page %d bytes differ", what, i)
		}
		if got[i].resident != want[i].resident {
			t.Fatalf("%s: page %d residency %v, want %v", what, i, got[i].resident, want[i].resident)
		}
		if got[i].dirty != want[i].dirty {
			t.Fatalf("%s: page %d dirty %v, want %v", what, i, got[i].dirty, want[i].dirty)
		}
		if got[i].sum != want[i].sum {
			t.Fatalf("%s: page %d checksum %#x, want %#x", what, i, got[i].sum, want[i].sum)
		}
	}
}

func TestRewindDomainDiscardExact(t *testing.T) {
	as := newRewindSpace(t, 8)
	// Mixed pre-state: page 0 resident+clean, page 1 resident+dirty,
	// page 2 untouched, page 3 zero-released (entry, no data).
	as.WriteU64(rwBase, 0x1111)
	as.ClearDirty(rwBase, 1)
	as.WriteU64(rwBase+PageSize, 0x2222)
	as.WriteU64(rwBase+3*PageSize, 0x3333)
	as.Zero(rwBase+3*PageSize, PageSize)

	pre := snapshotRange(as, 8)
	if err := as.BeginRewindDomain(); err != nil {
		t.Fatal(err)
	}
	// Touch every flavour of page, plus sub-page and straddling writes.
	as.WriteU64(rwBase+8, 0xAAAA)
	as.WriteU8(rwBase+PageSize+5, 0xBB)
	as.WriteAt(rwBase+2*PageSize-4, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // straddles 1→2
	as.WriteU64(rwBase+3*PageSize, 0xCCCC)
	as.FlipBit(rwBase+4*PageSize+17, 3)
	as.Zero(rwBase, 16)
	if n := as.DomainTouched(); n == 0 {
		t.Fatalf("DomainTouched = 0 after writes")
	}
	n, err := as.DiscardDomain()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("DiscardDomain restored 0 pages")
	}
	requireState(t, as, pre, "after discard")
	if as.DomainActive() {
		t.Fatal("domain still active after discard")
	}
}

// TestRewindDomainMappingRollback covers the mapping-level journal: a Map, a
// Grow, and an Unmap performed inside the domain are all undone by discard,
// so heap metadata rolled back by the page records stays in sync with the
// mapping layout.
func TestRewindDomainMappingRollback(t *testing.T) {
	as := newRewindSpace(t, 2)
	const victim = rwBase + VAddr(0x10_0000)
	if _, err := as.Map(victim, 2, KindMmap, "victim"); err != nil {
		t.Fatal(err)
	}
	as.WriteU64(victim, 0xBEEF)
	brk := as.FindMapping(rwBase)

	if err := as.BeginRewindDomain(); err != nil {
		t.Fatal(err)
	}
	const fresh = rwBase + VAddr(0x20_0000)
	if _, err := as.Map(fresh, 1, KindMmap, "fresh"); err != nil {
		t.Fatal(err)
	}
	as.WriteU64(fresh, 0xF00D)
	if err := as.Grow(brk, 3); err != nil {
		t.Fatal(err)
	}
	as.WriteU64(rwBase+3*PageSize, 0xD00F) // write into the grown tail
	if err := as.Unmap(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := as.DiscardDomain(); err != nil {
		t.Fatal(err)
	}

	if as.Mapped(fresh) {
		t.Fatal("mapping created inside the domain survived discard")
	}
	if got := brk.Pages; got != 2 {
		t.Fatalf("grown mapping not shrunk back: %d pages, want 2", got)
	}
	if !as.Mapped(victim) {
		t.Fatal("mapping unmapped inside the domain not restored")
	}
	if got := as.ReadU64(victim); got != 0xBEEF {
		t.Fatalf("restored mapping lost its bytes: %#x", got)
	}
	// A fresh Map at the same address must succeed after rollback (this is
	// exactly the heap's next-map reuse pattern).
	if _, err := as.Map(fresh, 1, KindMmap, "fresh2"); err != nil {
		t.Fatalf("re-Map after rollback: %v", err)
	}
	// Growing the brk mapping again must not bring back the discarded tail:
	// the re-grown pages are fresh, like pages that were never written.
	if err := as.Grow(brk, 3); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 5; i++ {
		a := rwBase + VAddr(i)*PageSize
		p := PageOf(a)
		if got := as.ReadU64(a); got != 0 {
			t.Fatalf("re-grown page %d reads %#x, want 0", i, got)
		}
		if as.PageResident(p) || as.PageDirty(p) {
			t.Fatalf("re-grown page %d resident=%v dirty=%v, want neither", i, as.PageResident(p), as.PageDirty(p))
		}
		if g := as.PageGen(p); g != 0 {
			t.Fatalf("re-grown page %d has PageGen %d, want 0", i, g)
		}
	}
}

func TestRewindDomainCommitKeepsWrites(t *testing.T) {
	as := newRewindSpace(t, 2)
	if err := as.BeginRewindDomain(); err != nil {
		t.Fatal(err)
	}
	as.WriteU64(rwBase, 0xFEED)
	if _, err := as.CommitDomain(); err != nil {
		t.Fatal(err)
	}
	if got := as.ReadU64(rwBase); got != 0xFEED {
		t.Fatalf("committed write lost: %#x", got)
	}
	if !as.PageDirty(PageOf(rwBase)) {
		t.Fatal("committed write lost its dirty bit")
	}
}

func TestRewindDomainSingleOwner(t *testing.T) {
	as := newRewindSpace(t, 1)
	if err := as.BeginRewindDomain(); err != nil {
		t.Fatal(err)
	}
	if err := as.BeginRewindDomain(); err == nil {
		t.Fatal("nested BeginRewindDomain succeeded")
	}
	if _, err := as.CommitDomain(); err != nil {
		t.Fatal(err)
	}
	if _, err := as.CommitDomain(); err == nil {
		t.Fatal("CommitDomain with no open domain succeeded")
	}
	if _, err := as.DiscardDomain(); err == nil {
		t.Fatal("DiscardDomain with no open domain succeeded")
	}
}

// FuzzRewindDomainRoundTrip drives random writes inside a domain and asserts
// the discard restores the byte-exact pre-state, including dirty bits and
// page checksums.
func FuzzRewindDomainRoundTrip(f *testing.F) {
	f.Add([]byte{0x01, 0x20, 0x03}, []byte{0x11, 0x40, 0x07, 0x90, 0x02})
	f.Add([]byte{}, []byte{0xFF, 0x00, 0x13})
	f.Add([]byte{0x55, 0xAA}, []byte{})
	f.Fuzz(func(t *testing.T, warm, ops []byte) {
		const pages = 4
		as := NewAddressSpace()
		if _, err := as.Map(rwBase, pages, KindCustom, "fuzz"); err != nil {
			t.Fatal(err)
		}
		span := VAddr(pages * PageSize)
		// Pre-populate from the warm bytes, then clean a prefix so the
		// domain crosses clean and dirty pages alike.
		for i := 0; i+1 < len(warm); i += 2 {
			as.WriteU8(rwBase+VAddr(warm[i])*97%span, warm[i+1])
		}
		as.ClearDirty(rwBase, pages/2)

		pre := snapshotRange(as, pages)
		if err := as.BeginRewindDomain(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			addr := rwBase + VAddr(ops[i])*131%span
			switch ops[i+1] % 5 {
			case 0:
				as.WriteU8(addr, ops[i+1])
			case 1:
				as.WriteU64(PageBase(addr), uint64(ops[i+1])<<8|uint64(ops[i]))
			case 2:
				as.WriteAt(addr, []byte{ops[i], ops[i+1], ops[i] ^ ops[i+1]})
			case 3:
				as.FlipBit(addr, uint(ops[i]))
			case 4:
				as.Zero(PageBase(addr), PageSize)
			}
		}
		if _, err := as.DiscardDomain(); err != nil {
			t.Fatal(err)
		}
		post := snapshotRange(as, pages)
		for i := range pre {
			if !bytes.Equal(post[i].data, pre[i].data) {
				t.Fatalf("page %d bytes differ after discard", i)
			}
			if post[i].resident != pre[i].resident {
				t.Fatalf("page %d residency %v, want %v", i, post[i].resident, pre[i].resident)
			}
			if post[i].dirty != pre[i].dirty {
				t.Fatalf("page %d dirty %v, want %v", i, post[i].dirty, pre[i].dirty)
			}
			if post[i].sum != pre[i].sum {
				t.Fatalf("page %d checksum %#x, want %#x", i, post[i].sum, pre[i].sum)
			}
		}
	})
}

// TestDirtySetInCleanRangeAllocs is the satellite micro-bench assertion: a
// clean range must report nil with zero allocations — the hot preserve loop
// calls this per preserved range, and a garbage zero-length slice per call
// adds up.
func TestDirtySetInCleanRangeAllocs(t *testing.T) {
	as := newRewindSpace(t, 64)
	as.WriteU64(rwBase, 1)
	as.ClearDirty(rwBase, 64)
	if got := as.DirtySetIn(rwBase, 64); got != nil {
		t.Fatalf("DirtySetIn on clean range = %v, want nil", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if as.DirtySetIn(rwBase, 64) != nil {
			t.Fatal("range became dirty")
		}
	})
	if allocs != 0 {
		t.Fatalf("DirtySetIn on clean range allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkDirtySetInClean(b *testing.B) {
	as := newRewindSpace(b, 1024)
	for i := 0; i < 1024; i++ {
		as.WriteU8(rwBase+VAddr(i)*PageSize, 1)
	}
	as.ClearDirty(rwBase, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if as.DirtySetIn(rwBase, 1024) != nil {
			b.Fatal("range became dirty")
		}
	}
}

func BenchmarkRewindDomainDiscard(b *testing.B) {
	as := newRewindSpace(b, 256)
	for i := 0; i < 256; i++ {
		as.WriteU8(rwBase+VAddr(i)*PageSize, byte(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.BeginRewindDomain(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			as.WriteU8(rwBase+VAddr(j)*8*PageSize, byte(i))
		}
		if _, err := as.DiscardDomain(); err != nil {
			b.Fatal(err)
		}
	}
}
