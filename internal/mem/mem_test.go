package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, as *AddressSpace, start VAddr, pages int, kind Kind, name string) *Mapping {
	t.Helper()
	m, err := as.Map(start, pages, kind, name)
	if err != nil {
		t.Fatalf("Map(%#x,%d): %v", uint64(start), pages, err)
	}
	return m
}

func TestMapBasics(t *testing.T) {
	as := NewAddressSpace()
	m := mustMap(t, as, 0x1000, 4, KindMmap, "a")
	if m.End() != 0x5000 || m.Len() != 4*PageSize {
		t.Fatalf("mapping extent wrong: end=%#x len=%d", uint64(m.End()), m.Len())
	}
	if !as.Mapped(0x1000) || !as.Mapped(0x4fff) || as.Mapped(0x5000) || as.Mapped(0xfff) {
		t.Fatal("Mapped() boundaries wrong")
	}
	if as.MappedPages() != 4 {
		t.Fatalf("MappedPages = %d", as.MappedPages())
	}
}

func TestMapErrors(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(0x1001, 1, KindMmap, "unaligned"); err == nil {
		t.Fatal("unaligned Map succeeded")
	}
	if _, err := as.Map(0x1000, 0, KindMmap, "empty"); err == nil {
		t.Fatal("zero-length Map succeeded")
	}
	if _, err := as.Map(0, 1, KindMmap, "zero"); err == nil {
		t.Fatal("page-zero Map succeeded")
	}
	mustMap(t, as, 0x1000, 4, KindMmap, "a")
	if _, err := as.Map(0x3000, 4, KindMmap, "overlap"); err == nil {
		t.Fatal("overlapping Map succeeded")
	}
}

func TestUnmap(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 2, KindMmap, "a")
	as.WriteU64(0x1000, 42)
	if err := as.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if as.Mapped(0x1000) {
		t.Fatal("still mapped after Unmap")
	}
	if err := as.Unmap(0x1000); err == nil {
		t.Fatal("double Unmap succeeded")
	}
	// Remapping the range must read zeros (frames were dropped).
	mustMap(t, as, 0x1000, 2, KindMmap, "b")
	if v := as.ReadU64(0x1000); v != 0 {
		t.Fatalf("stale frame survived unmap: %d", v)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 4, KindMmap, "a")
	data := []byte("hello, phoenix")
	as.WriteAt(0x1100, data)
	got := as.ReadBytes(0x1100, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: got %q", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 2, KindMmap, "a")
	// Write across the page boundary at 0x2000.
	addr := VAddr(0x2000 - 3)
	as.WriteU64(addr, 0x1122334455667788)
	if got := as.ReadU64(addr); got != 0x1122334455667788 {
		t.Fatalf("cross-page u64 = %#x", got)
	}
	buf := make([]byte, PageSize+100)
	for i := range buf {
		buf[i] = byte(i)
	}
	as.WriteAt(0x1000, buf)
	if !bytes.Equal(as.ReadBytes(0x1000, len(buf)), buf) {
		t.Fatal("cross-page bulk round trip failed")
	}
}

func TestZeroFill(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 1, KindMmap, "a")
	// Untouched mapped memory reads as zero.
	if v := as.ReadU64(0x1800); v != 0 {
		t.Fatalf("untouched page reads %d", v)
	}
	as.WriteAt(0x1000, []byte{1, 2, 3, 4})
	as.Zero(0x1000, 4)
	if !bytes.Equal(as.ReadBytes(0x1000, 4), []byte{0, 0, 0, 0}) {
		t.Fatal("Zero did not clear bytes")
	}
}

// TestFaultPanics pins the fault contract of every accessor: an access that
// touches an unmapped byte panics with a *Fault naming the first unmapped
// byte and the access direction, and changes nothing on the way.
func TestFaultPanics(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 1, KindMmap, "a")
	// Two adjacent mappings ending in a hole: a bulk access walks both.
	mustMap(t, as, 0x4000, 2, KindMmap, "b")
	mustMap(t, as, 0x6000, 1, KindMmap, "c")
	for a := VAddr(0x1000); a < 0x2000; a += 8 {
		as.WriteU64(a, uint64(a))
	}
	for a := VAddr(0x4000); a < 0x7000; a += 8 {
		as.WriteU64(a, uint64(a))
	}
	cases := []struct {
		name string
		addr VAddr // the first unmapped byte
		op   string
		fn   func()
	}{
		{"ReadU8 unmapped", 0x9000, "read", func() { as.ReadU8(0x9000) }},
		{"WriteU8 unmapped", 0x9000, "write", func() { as.WriteU8(0x9000, 1) }},
		{"ReadU32 unmapped", 0x9000, "read", func() { as.ReadU32(0x9000) }},
		{"WriteU32 unmapped", 0x9000, "write", func() { as.WriteU32(0x9000, 1) }},
		{"ReadU64 unmapped", 0x9000, "read", func() { as.ReadU64(0x9000) }},
		{"WriteU64 unmapped", 0x9000, "write", func() { as.WriteU64(0x9000, 1) }},
		{"ReadAt unmapped", 0x9000, "read", func() { as.ReadAt(0x9000, make([]byte, 16)) }},
		{"WriteAt unmapped", 0x9000, "write", func() { as.WriteAt(0x9000, make([]byte, 16)) }},
		{"Zero unmapped", 0x9000, "write", func() { as.Zero(0x9000, 16) }},
		{"FlipBit unmapped", 0x9000, "write", func() { as.FlipBit(0x9000, 3) }},
		{"ReadU8 null", NullPtr, "read", func() { as.ReadU8(NullPtr) }},
		{"ReadU64 null", NullPtr, "read", func() { as.ReadU64(NullPtr) }},
		{"WriteU64 null", NullPtr, "write", func() { as.WriteU64(NullPtr, 1) }},
		{"empty ReadAt unmapped", 0x9000, "read", func() { as.ReadAt(0x9000, nil) }},
		{"empty WriteAt unmapped", 0x9000, "write", func() { as.WriteAt(0x9000, nil) }},
		{"empty Zero unmapped", 0x9000, "write", func() { as.Zero(0x9000, 0) }},
		{"ReadU32 off the end", 0x2000, "read", func() { as.ReadU32(0x1ffe) }},
		{"WriteU32 off the end", 0x2000, "write", func() { as.WriteU32(0x1ffe, 1) }},
		{"ReadU64 off the end", 0x2000, "read", func() { as.ReadU64(0x1ffc) }},
		{"WriteU64 off the end", 0x2000, "write", func() { as.WriteU64(0x1ffc, 1) }},
		{"ReadAt off the end", 0x2000, "read", func() { as.ReadBytes(0x1ffc, 8) }},
		{"WriteAt off the end", 0x2000, "write", func() { as.WriteAt(0x1f00, make([]byte, 512)) }},
		{"Zero off the end", 0x2000, "write", func() { as.Zero(0x1f00, 512) }},
		{"ReadAt across mappings off the end", 0x7000, "read", func() { as.ReadBytes(0x5ff0, 0x1020) }},
		{"WriteAt across mappings off the end", 0x7000, "write", func() { as.WriteAt(0x5ff0, make([]byte, 0x1020)) }},
		{"Zero across mappings off the end", 0x7000, "write", func() { as.Zero(0x5ff0, 0x1020) }},
	}
	type page struct {
		data []byte
		gen  uint64
	}
	state := func() []page {
		var out []page
		for _, a := range []VAddr{0x1000, 0x4000, 0x5000, 0x6000} {
			out = append(out, page{as.ReadBytes(a, PageSize), as.PageGen(PageOf(a))})
		}
		return out
	}
	for _, tc := range cases {
		before := state()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: no panic", tc.name)
					return
				}
				f, ok := r.(*Fault)
				if !ok {
					t.Errorf("%s: panic value %T, want *Fault", tc.name, r)
					return
				}
				if f.Addr != tc.addr || f.Op != tc.op {
					t.Errorf("%s: fault %s at %#x, want %s at %#x", tc.name, f.Op, uint64(f.Addr), tc.op, uint64(tc.addr))
				}
			}()
			tc.fn()
		}()
		for i, p := range state() {
			if !bytes.Equal(p.data, before[i].data) || p.gen != before[i].gen {
				t.Errorf("%s: faulting access changed mapped page %d", tc.name, i)
			}
		}
	}
}

func TestContiguousMappingsSpanAccess(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 1, KindMmap, "a")
	mustMap(t, as, 0x2000, 1, KindMmap, "b")
	as.WriteU64(0x1ffc, 0xdeadbeefcafef00d) // spans both mappings
	if got := as.ReadU64(0x1ffc); got != 0xdeadbeefcafef00d {
		t.Fatalf("adjacent-mapping access = %#x", got)
	}
	as.WriteU32(0x1ffe, 0x01020304)
	if got := as.ReadU32(0x1ffe); got != 0x01020304 {
		t.Fatalf("adjacent-mapping u32 access = %#x", got)
	}
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i + 1)
	}
	as.WriteAt(0x1fe0, buf)
	if got := as.ReadBytes(0x1fe0, len(buf)); !bytes.Equal(got, buf) {
		t.Fatalf("adjacent-mapping bulk access = %v", got)
	}
	as.Zero(0x1ff0, 32)
	got := as.ReadBytes(0x1fe0, len(buf))
	for i, b := range got {
		want := buf[i]
		if i >= 16 && i < 48 {
			want = 0
		}
		if b != want {
			t.Fatalf("after Zero across mappings byte %d = %d, want %d", i, b, want)
		}
	}
}

func TestGrow(t *testing.T) {
	as := NewAddressSpace()
	m := mustMap(t, as, 0x1000, 1, KindBrk, "brk")
	if err := as.Grow(m, 2); err != nil {
		t.Fatal(err)
	}
	as.WriteU64(0x3000, 7)
	if as.ReadU64(0x3000) != 7 {
		t.Fatal("grown region not writable")
	}
	mustMap(t, as, 0x4000, 1, KindMmap, "blocker")
	if err := as.Grow(m, 1); err == nil {
		t.Fatal("Grow into a blocker succeeded")
	}
	if err := as.Grow(m, 0); err == nil {
		t.Fatal("Grow by zero succeeded")
	}
}

func TestMovePages(t *testing.T) {
	src := NewAddressSpace()
	dst := NewAddressSpace()
	mustMap(t, src, 0x1000, 4, KindMmap, "heap")
	src.WriteU64(0x1000, 111)
	src.WriteU64(0x3008, 222)

	moved, err := src.MovePages(dst, 0x1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 4 {
		t.Fatalf("moved %d pages, want 4", moved)
	}
	if dst.ReadU64(0x1000) != 111 || dst.ReadU64(0x3008) != 222 {
		t.Fatal("moved data not readable in destination")
	}
	// Source frames are gone; source mapping still exists but pages were
	// detached — remaining reads see zeros.
	if src.ReadU64(0x1000) != 0 {
		t.Fatal("source retained frame after move")
	}
	if m := dst.FindMapping(0x1000); m == nil || m.Kind != KindMmap || m.Name != "heap" {
		t.Fatal("destination mapping metadata not mirrored")
	}
}

func TestMovePagesZeroCopy(t *testing.T) {
	src := NewAddressSpace()
	dst := NewAddressSpace()
	mustMap(t, src, 0x1000, 1, KindMmap, "a")
	src.WriteU8(0x1000, 9)
	f := src.frameAt(PageOf(0x1000))
	if _, err := src.MovePages(dst, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if dst.frameAt(PageOf(0x1000)) != f {
		t.Fatal("MovePages copied the frame instead of moving the pointer")
	}
}

func TestMovePagesErrors(t *testing.T) {
	src := NewAddressSpace()
	dst := NewAddressSpace()
	mustMap(t, src, 0x1000, 1, KindMmap, "a")
	if _, err := src.MovePages(dst, 0x1000, 2); err == nil {
		t.Fatal("move past mapping succeeded")
	}
	mustMap(t, dst, 0x1000, 1, KindMmap, "busy")
	if _, err := src.MovePages(dst, 0x1000, 1); err == nil {
		t.Fatal("move into occupied destination succeeded")
	}
}

func TestCopyPages(t *testing.T) {
	src := NewAddressSpace()
	dst := NewAddressSpace()
	mustMap(t, src, 0x1000, 2, KindMmap, "a")
	src.WriteU64(0x1000, 5)
	copied, err := src.CopyPages(dst, 0x1000, 2, KindMmap, "snap")
	if err != nil {
		t.Fatal(err)
	}
	if copied != 1 { // only one page materialized
		t.Fatalf("copied %d frames, want 1", copied)
	}
	if dst.ReadU64(0x1000) != 5 {
		t.Fatal("copy content wrong")
	}
	// Copies are independent.
	src.WriteU64(0x1000, 6)
	if dst.ReadU64(0x1000) != 5 {
		t.Fatal("copy aliases source frame")
	}
}

func TestResidentPages(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 8, KindMmap, "a")
	if as.ResidentPages() != 0 {
		t.Fatal("fresh mapping has resident pages")
	}
	as.WriteU8(0x1000, 1)
	as.WriteU8(0x3000, 1)
	if as.ResidentPages() != 2 {
		t.Fatalf("ResidentPages = %d, want 2", as.ResidentPages())
	}
}

func TestPageHelpers(t *testing.T) {
	if PageOf(0x1fff) != 1 || PageOf(0x2000) != 2 {
		t.Fatal("PageOf wrong")
	}
	if PageBase(0x1fff) != 0x1000 {
		t.Fatal("PageBase wrong")
	}
	if PagesFor(0) != 0 || PagesFor(1) != 1 || PagesFor(PageSize) != 1 || PagesFor(PageSize+1) != 2 {
		t.Fatal("PagesFor wrong")
	}
}

// Property: any sequence of writes then reads round-trips through simulated
// memory exactly like through a flat byte array.
func TestQuickReadWriteEquivalence(t *testing.T) {
	const pages = 8
	f := func(ops []struct {
		Off  uint16
		Data []byte
	}) bool {
		as := NewAddressSpace()
		if _, err := as.Map(0x1000, pages, KindMmap, "q"); err != nil {
			return false
		}
		shadow := make([]byte, pages*PageSize)
		for _, op := range ops {
			off := int(op.Off) % (pages*PageSize - 256)
			data := op.Data
			if len(data) > 256 {
				data = data[:256]
			}
			as.WriteAt(0x1000+VAddr(off), data)
			copy(shadow[off:], data)
		}
		return bytes.Equal(as.ReadBytes(0x1000, len(shadow)), shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MovePages preserves content byte-for-byte for arbitrary fills.
func TestQuickMovePreservesContent(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) == 0 {
			return true
		}
		src := NewAddressSpace()
		dst := NewAddressSpace()
		if _, err := src.Map(0x1000, 4, KindMmap, "q"); err != nil {
			return false
		}
		buf := make([]byte, 4*PageSize)
		for i := range buf {
			buf[i] = seed[i%len(seed)]
		}
		src.WriteAt(0x1000, buf)
		if _, err := src.MovePages(dst, 0x1000, 4); err != nil {
			return false
		}
		return bytes.Equal(dst.ReadBytes(0x1000, len(buf)), buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmovePagesRestoresSource(t *testing.T) {
	src := NewAddressSpace()
	dst := NewAddressSpace()
	const base = VAddr(0x4000)
	if _, err := src.Map(base, 3, KindCustom, "buf"); err != nil {
		t.Fatal(err)
	}
	src.WriteU64(base, 111)
	src.WriteU64(base+2*PageSize+8, 222)
	if _, err := src.MovePages(dst, base, 3); err != nil {
		t.Fatal(err)
	}
	// Source mappings survive a MovePages but the frames are gone: reads
	// come back as zeros — the half-gutted state UnmovePages must repair.
	if src.ReadU64(base) != 0 {
		t.Fatal("frames not moved out of source")
	}
	dst.UnmovePages(src, base, 3)
	if got := src.ReadU64(base); got != 111 {
		t.Fatalf("head value after rollback = %d, want 111", got)
	}
	if got := src.ReadU64(base + 2*PageSize + 8); got != 222 {
		t.Fatalf("tail value after rollback = %d, want 222", got)
	}
	if len(dst.Mappings()) != 0 || dst.ResidentPages() != 0 {
		t.Fatalf("destination not emptied: %d mappings, %d resident",
			len(dst.Mappings()), dst.ResidentPages())
	}
	// The range can be moved again after rollback (retry path).
	if _, err := src.MovePages(dst, base, 3); err != nil {
		t.Fatalf("re-move after rollback: %v", err)
	}
	if dst.ReadU64(base) != 111 {
		t.Fatal("re-move lost content")
	}
}

func TestUnmovePagesKeepsUnrelatedMappings(t *testing.T) {
	src := NewAddressSpace()
	dst := NewAddressSpace()
	if _, err := src.Map(0x4000, 1, KindCustom, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Map(0x8000, 1, KindCustom, "b"); err != nil {
		t.Fatal(err)
	}
	src.WriteU64(0x8000, 9)
	if _, err := src.MovePages(dst, 0x4000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := src.MovePages(dst, 0x8000, 1); err != nil {
		t.Fatal(err)
	}
	dst.UnmovePages(src, 0x4000, 1)
	// Only the rolled-back range leaves dst; the other move stays.
	if dst.ReadU64(0x8000) != 9 {
		t.Fatal("unrelated moved mapping dropped by rollback")
	}
	if dst.Mapped(0x4000) {
		t.Fatal("rolled-back mapping still present in destination")
	}
}

// benchArenas maps 64 one-MiB arenas back to back, the way the heap lays out
// its mmap arenas, writes every page, and draws random 8-byte-aligned
// addresses across them (aligned like the heap's pointers and counters, so
// no access crosses a page).
func benchArenas(b *testing.B) (*AddressSpace, []VAddr) {
	const (
		base       = VAddr(0x1000_0000)
		arenas     = 64
		arenaBytes = 1 << 20
	)
	as := NewAddressSpace()
	for i := 0; i < arenas; i++ {
		if _, err := as.Map(base+VAddr(i)*arenaBytes, arenaBytes/PageSize, KindMmap, "heap.arena"); err != nil {
			b.Fatal(err)
		}
	}
	const span = arenas * arenaBytes
	for a := base; a < base+span; a += PageSize {
		as.WriteU64(a, uint64(a))
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]VAddr, 1<<14)
	for i := range addrs {
		addrs[i] = base + VAddr(rng.Int63n(span/8))*8
	}
	return as, addrs
}

var benchSink uint64

func BenchmarkReadU64(b *testing.B) {
	as, addrs := benchArenas(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += as.ReadU64(addrs[i&(len(addrs)-1)])
	}
	benchSink = sum
}

func BenchmarkWriteU64(b *testing.B) {
	as, addrs := benchArenas(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.WriteU64(addrs[i&(len(addrs)-1)], uint64(i))
	}
}
