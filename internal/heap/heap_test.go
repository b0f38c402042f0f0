package heap

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"phoenix/internal/kernel"
	"phoenix/internal/mem"
)

const testBase = mem.VAddr(0x1000_0000)

func newHeap(t *testing.T, opts Options) (*mem.AddressSpace, *Heap) {
	t.Helper()
	as := mem.NewAddressSpace()
	h, err := New(as, testBase, opts)
	if err != nil {
		t.Fatal(err)
	}
	return as, h
}

// TestClassGeometry pins the size classes to glibc's 16-byte spacing up to
// 1 KiB, checks classFor's arithmetic against a scan of the table for every
// arena chunk size, and checks the root header holds all free-list heads
// (the package's init panics before any test if they overflow it).
func TestClassGeometry(t *testing.T) {
	small := 0
	for i, s := range classSizes {
		if s%16 != 0 {
			t.Errorf("class %d is %d bytes, not a multiple of 16", i, s)
		}
		if s <= 1024 {
			small++
			if s != 32+16*i {
				t.Errorf("class %d is %d bytes, want %d", i, s, 32+16*i)
			}
		}
	}
	if small != 63 || classSizes[small-1] != 1024 {
		t.Errorf("%d classes up to 1024 bytes, ending at %d, want 63 ending at 1024", small, classSizes[small-1])
	}
	scan := func(n int) int {
		for i, s := range classSizes {
			if n <= s {
				return i
			}
		}
		return -1
	}
	last := classSizes[len(classSizes)-1]
	for n := 1; n <= last+1; n++ {
		if got, want := classFor(n), scan(n); got != want {
			t.Fatalf("classFor(%d) = %d, want %d", n, got, want)
		}
	}

	// The root header holds every free-list head: with every class's list
	// non-empty at once, each list still hands back its own chunk.
	_, h := newHeap(t, Options{})
	payload := func(s int) int { return min(s, MmapThreshold-8) - chunkHeader }
	var freed []mem.VAddr
	for _, s := range classSizes {
		freed = append(freed, h.Alloc(payload(s)))
	}
	for _, p := range freed {
		h.Free(p)
	}
	for i, s := range classSizes {
		if p := h.Alloc(payload(s)); p != freed[i] {
			t.Errorf("class %d (%d bytes) handed out %#x, want its freed chunk %#x", i, s, uint64(p), uint64(freed[i]))
		}
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	as, h := newHeap(t, Options{})
	p := h.Alloc(100)
	if p == mem.NullPtr {
		t.Fatal("Alloc failed")
	}
	as.WriteAt(p, []byte("payload"))
	if !bytes.Equal(as.ReadBytes(p, 7), []byte("payload")) {
		t.Fatal("payload round trip failed")
	}
	if h.UsableSize(p) < 100 {
		t.Fatalf("UsableSize = %d, want >= 100", h.UsableSize(p))
	}
	st := h.Stats()
	if st.LiveChunks != 1 {
		t.Fatalf("LiveChunks = %d", st.LiveChunks)
	}
	h.Free(p)
	if st := h.Stats(); st.LiveChunks != 0 || st.LiveBytes != 0 {
		t.Fatalf("after free: %+v", st)
	}
}

func TestFreeListRecycling(t *testing.T) {
	_, h := newHeap(t, Options{})
	p1 := h.Alloc(100)
	h.Free(p1)
	p2 := h.Alloc(100)
	if p1 != p2 {
		t.Fatalf("same-class alloc after free got %#x, want recycled %#x", uint64(p2), uint64(p1))
	}
}

func TestAllocDistinct(t *testing.T) {
	_, h := newHeap(t, Options{})
	seen := map[mem.VAddr]bool{}
	for i := 0; i < 1000; i++ {
		p := h.Alloc(64)
		if seen[p] {
			t.Fatalf("Alloc returned duplicate address %#x", uint64(p))
		}
		seen[p] = true
	}
}

func TestLargeAllocation(t *testing.T) {
	as, h := newHeap(t, Options{})
	p := h.Alloc(200 << 10) // above MmapThreshold
	if p == mem.NullPtr {
		t.Fatal("large Alloc failed")
	}
	buf := make([]byte, 200<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	as.WriteAt(p, buf)
	if !bytes.Equal(as.ReadBytes(p, len(buf)), buf) {
		t.Fatal("large payload round trip failed")
	}
	if h.Stats().LargeRegs != 1 {
		t.Fatalf("LargeRegs = %d", h.Stats().LargeRegs)
	}
	h.Free(p)
	if h.Stats().LargeRegs != 0 {
		t.Fatal("large region not unmapped on free")
	}
	if as.Mapped(p) {
		t.Fatal("large pages still mapped after free")
	}
}

func TestBrkGrowthThenArenas(t *testing.T) {
	_, h := newHeap(t, Options{BrkMax: 64 << 10, ArenaSize: 64 << 10})
	// Exhaust brk then force mmap arenas.
	for i := 0; i < 100; i++ {
		if h.Alloc(2000) == mem.NullPtr {
			t.Fatalf("Alloc %d failed", i)
		}
	}
	st := h.Stats()
	if st.Arenas < 2 {
		t.Fatalf("expected mmap arenas after brk exhaustion, got %d", st.Arenas)
	}
}

func expectAbort(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: no abort", name)
			return
		}
		c, ok := r.(*kernel.Crash)
		if !ok || c.Sig != kernel.SIGABRT {
			t.Errorf("%s: panic %v, want SIGABRT crash", name, r)
		}
	}()
	fn()
}

func TestIntegrityChecks(t *testing.T) {
	as, h := newHeap(t, Options{})
	p := h.Alloc(64)

	expectAbort(t, "free nil", func() { h.Free(mem.NullPtr) })
	expectAbort(t, "free wild", func() { h.Free(mem.VAddr(0x5000)) })

	h.Free(p)
	expectAbort(t, "double free", func() { h.Free(p) })

	// Corrupt a chunk header (models a buffer overrun into metadata) and
	// check the next free aborts like glibc's checks.
	p2 := h.Alloc(64)
	as.WriteU64(p2-chunkHeader, 0xffffffffffffffff)
	expectAbort(t, "corrupted header", func() { h.Free(p2) })

	// A size word below the smallest chunk aborts wherever it is read: 8 is
	// the header alone, and no chunk is 16 or 24 bytes.
	for _, size := range []uint64{8, 16, 24} {
		as, h := newHeap(t, Options{})
		p := h.Alloc(64)
		as.WriteU64(p-chunkHeader, size|flagInUse)
		expectAbort(t, fmt.Sprintf("usable_size of a %d-byte chunk", size), func() { h.UsableSize(p) })
		expectAbort(t, fmt.Sprintf("sweep over a %d-byte chunk", size), func() { h.Sweep() })
	}

	// A chunk of another heap is not this heap's to mark.
	other, err := New(as, testBase-0x100_0000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := other.Alloc(64)
	expectAbort(t, "mark foreign chunk", func() { h.Mark(q) })
}

func TestMarkAndSweep(t *testing.T) {
	_, h := newHeap(t, Options{})
	keep := h.Alloc(128)
	drop1 := h.Alloc(128)
	drop2 := h.Alloc(4096)
	large := h.Alloc(100 << 10)
	h.Mark(keep)
	h.Mark(large)

	freed, freedBytes, visited := h.Sweep()
	if freed != 2 {
		t.Fatalf("Sweep freed %d chunks, want 2", freed)
	}
	if freedBytes <= 0 || visited < 4 {
		t.Fatalf("Sweep stats: bytes=%d visited=%d", freedBytes, visited)
	}
	// Sweep drops the markers, so a future sweep would free the survivors.
	if h.Marked(keep) || h.Marked(large) {
		t.Fatal("Sweep did not clear markers on retained chunks")
	}
	if h.Stats().LiveChunks != 2 {
		t.Fatalf("LiveChunks after sweep = %d, want 2", h.Stats().LiveChunks)
	}
	// The dropped chunks are reusable.
	if p := h.Alloc(128); p != drop1 && p != drop2 {
		// Either recycled address is acceptable; at minimum it must succeed.
		if p == mem.NullPtr {
			t.Fatal("alloc after sweep failed")
		}
	}
}

// The marker set lives outside simulated memory, so a cleanup that keeps
// everything writes no heap page and the next preserve reuses every sum.
func TestMarkSweepLeavesPagesClean(t *testing.T) {
	as, h := newHeap(t, Options{BrkMax: 64 << 10, ArenaSize: 64 << 10})
	var live []mem.VAddr
	for i := 0; i < 500; i++ {
		live = append(live, h.Alloc(40+i%700))
	}
	live = append(live, h.Alloc(100<<10), h.Alloc(200<<10))
	for _, m := range as.Mappings() {
		as.ClearDirty(m.Start, m.Pages)
	}
	for _, p := range live {
		h.Mark(p)
	}
	if freed, _, _ := h.Sweep(); freed != 0 {
		t.Fatalf("Sweep freed %d chunks, want 0", freed)
	}
	if n := as.DirtyPages(); n != 0 {
		t.Fatalf("mark and sweep dirtied %d pages, want 0", n)
	}
	if h.Marked(live[0]) || h.marks != nil {
		t.Fatal("Sweep did not drop the marker set")
	}
}

func TestFreedChunkIsNotPremarked(t *testing.T) {
	_, h := newHeap(t, Options{})
	p := h.Alloc(128)
	h.Mark(p)
	h.Free(p)
	q := h.Alloc(128)
	if q != p {
		t.Fatalf("realloc got %#x, want recycled %#x", uint64(q), uint64(p))
	}
	if h.Marked(q) {
		t.Fatal("recycled chunk came back marked")
	}
	if freed, _, _ := h.Sweep(); freed != 1 {
		t.Fatalf("Sweep freed %d chunks, want the unmarked recycled one", freed)
	}
}

// Sweep frees large regions while it walks their list, including the head
// and a region mapped after the first Mark sized the marker set.
func TestSweepLargeRegions(t *testing.T) {
	as, h := newHeap(t, Options{})
	a := h.Alloc(100 << 10)
	keep := h.Alloc(100 << 10)
	h.Mark(keep)
	b := h.Alloc(300 << 10)
	keep2 := h.Alloc(70 << 10) // past the span the marker set covers
	h.Mark(keep2)
	c := h.Alloc(70 << 10) // list head
	as.WriteU64(keep, 7)
	freed, _, visited := h.Sweep()
	if freed != 3 || visited != 5 {
		t.Fatalf("Sweep freed %d of %d, want 3 of 5", freed, visited)
	}
	if as.Mapped(a) || as.Mapped(b) || as.Mapped(c) {
		t.Fatal("unmarked large regions still mapped")
	}
	if h.Stats().LargeRegs != 2 || as.ReadU64(keep) != 7 || !as.Mapped(keep2) {
		t.Fatal("marked large regions not retained intact")
	}
}

func TestWalkCoversAll(t *testing.T) {
	_, h := newHeap(t, Options{})
	want := map[mem.VAddr]bool{}
	for i := 0; i < 10; i++ {
		want[h.Alloc(100)] = true
	}
	large := h.Alloc(128 << 10)
	want[large] = true
	got := map[mem.VAddr]bool{}
	h.Walk(func(p mem.VAddr, size int, inUse, marked bool) bool {
		if inUse {
			got[p] = true
		}
		return true
	})
	for p := range want {
		if !got[p] {
			t.Fatalf("Walk missed chunk %#x", uint64(p))
		}
	}
}

func TestAttachAfterPreserve(t *testing.T) {
	as, h := newHeap(t, Options{})
	ptrs := make([]mem.VAddr, 50)
	for i := range ptrs {
		ptrs[i] = h.Alloc(200)
		as.WriteU64(ptrs[i], uint64(i)*7)
	}
	large := h.Alloc(100 << 10)
	as.WriteU64(large, 424242)

	// Simulate preserve_exec: move every heap range into a new space.
	dst := mem.NewAddressSpace()
	for _, r := range h.PreservedRanges() {
		if _, err := as.MovePages(dst, r.Start, r.Len/mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}

	h2, err := Attach(dst, testBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ptrs {
		if dst.ReadU64(p) != uint64(i)*7 {
			t.Fatalf("preserved chunk %d content lost", i)
		}
	}
	if dst.ReadU64(large) != 424242 {
		t.Fatal("preserved large content lost")
	}
	// The re-attached heap keeps allocating correctly.
	st := h2.Stats()
	if st.LiveChunks != 51 {
		t.Fatalf("reattached LiveChunks = %d, want 51", st.LiveChunks)
	}
	p := h2.Alloc(200)
	if p == mem.NullPtr {
		t.Fatal("alloc on reattached heap failed")
	}
	for _, old := range ptrs {
		if p == old {
			t.Fatal("reattached heap handed out a live chunk")
		}
	}
	// Free and sweep still work post-attach.
	h2.Mark(ptrs[0])
	h2.Mark(large)
	h2.Mark(p)
	freed, _, _ := h2.Sweep()
	if freed != 49 {
		t.Fatalf("post-attach sweep freed %d, want 49", freed)
	}
}

func TestAttachErrors(t *testing.T) {
	as := mem.NewAddressSpace()
	if _, err := Attach(as, testBase, Options{}); err == nil {
		t.Fatal("Attach on unmapped memory succeeded")
	}
	if _, err := as.Map(testBase, 1, mem.KindBrk, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(as, testBase, Options{}); err == nil {
		t.Fatal("Attach without root magic succeeded")
	}
}

func TestPreservedRangesCoverAllocations(t *testing.T) {
	_, h := newHeap(t, Options{BrkMax: 16 << 10, ArenaSize: 16 << 10})
	var ptrs []mem.VAddr
	for i := 0; i < 200; i++ {
		ptrs = append(ptrs, h.Alloc(500))
	}
	ptrs = append(ptrs, h.Alloc(300<<10))
	ranges := h.PreservedRanges()
	covered := func(p mem.VAddr) bool {
		for _, r := range ranges {
			if p >= r.Start && p < r.End() {
				return true
			}
		}
		return false
	}
	for _, p := range ptrs {
		if !covered(p) {
			t.Fatalf("allocation %#x not covered by preserved ranges", uint64(p))
		}
	}
}

// Property: for random alloc/free interleavings the allocator never hands
// out overlapping live chunks, and stats stay consistent.
func TestQuickNoOverlap(t *testing.T) {
	f := func(sizes []uint16, freeMask []bool) bool {
		as := mem.NewAddressSpace()
		h, err := New(as, testBase, Options{})
		if err != nil {
			return false
		}
		type alloc struct {
			p    mem.VAddr
			size int
		}
		var live []alloc
		for i, s := range sizes {
			n := int(s)%3000 + 1
			p := h.Alloc(n)
			if p == mem.NullPtr {
				return false
			}
			live = append(live, alloc{p, n})
			if i < len(freeMask) && freeMask[i] && len(live) > 0 {
				h.Free(live[0].p)
				live = live[1:]
			}
		}
		// Overlap check over payload ranges.
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.p < b.p+mem.VAddr(b.size) && b.p < a.p+mem.VAddr(a.size) {
					return false
				}
			}
		}
		return int64(len(live)) == h.Stats().LiveChunks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: writes to one allocation never bleed into another.
func TestQuickIsolation(t *testing.T) {
	as, h := newHeap(t, Options{})
	f := func(fill byte, n uint16) bool {
		size := int(n)%2000 + 8
		a := h.Alloc(size)
		b := h.Alloc(size)
		if a == mem.NullPtr || b == mem.NullPtr {
			return false
		}
		bufA := bytes.Repeat([]byte{fill}, size)
		bufB := bytes.Repeat([]byte{^fill}, size)
		as.WriteAt(a, bufA)
		as.WriteAt(b, bufB)
		ok := bytes.Equal(as.ReadBytes(a, size), bufA) && bytes.Equal(as.ReadBytes(b, size), bufB)
		h.Free(a)
		h.Free(b)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
