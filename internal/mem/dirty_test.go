package mem

import (
	"fmt"
	"testing"
)

const dirtyBase = VAddr(0x5000_0000)

func mapOne(t testing.TB, as *AddressSpace, start VAddr, pages int, name string) *Mapping {
	t.Helper()
	m, err := as.Map(start, pages, KindCustom, name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Every write path must set the soft-dirty bit of the page it touches, and
// reads must not.
func TestDirtyBitWritePaths(t *testing.T) {
	cases := []struct {
		name  string
		write func(as *AddressSpace, addr VAddr)
	}{
		{"WriteAt", func(as *AddressSpace, a VAddr) { as.WriteAt(a, []byte{1, 2, 3}) }},
		{"WriteU8", func(as *AddressSpace, a VAddr) { as.WriteU8(a, 7) }},
		{"WriteU32", func(as *AddressSpace, a VAddr) { as.WriteU32(a, 7) }},
		{"WriteU64", func(as *AddressSpace, a VAddr) { as.WriteU64(a, 7) }},
		{"WriteU64-straddle", func(as *AddressSpace, a VAddr) { as.WriteU64(a+PageSize-4, 0x0102030405060708) }},
		{"WritePtr", func(as *AddressSpace, a VAddr) { as.WritePtr(a, dirtyBase) }},
		{"Zero", func(as *AddressSpace, a VAddr) { as.WriteU8(a, 1); as.Zero(a, 16) }},
		{"FlipBit", func(as *AddressSpace, a VAddr) { as.FlipBit(a, 3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			as := NewAddressSpace()
			mapOne(t, as, dirtyBase, 2, "d")
			if n := as.DirtyPages(); n != 0 {
				t.Fatalf("fresh space has %d dirty pages", n)
			}
			tc.write(as, dirtyBase)
			if !as.PageDirty(PageOf(dirtyBase)) {
				t.Fatalf("%s did not set the dirty bit", tc.name)
			}
		})
	}

	// Reads leave everything clean.
	as := NewAddressSpace()
	mapOne(t, as, dirtyBase, 2, "d")
	as.ReadU8(dirtyBase)
	as.ReadU64(dirtyBase)
	as.ReadBytes(dirtyBase, 100)
	_ = as.PageChecksum(PageOf(dirtyBase))
	if n := as.DirtyPages(); n != 0 {
		t.Fatalf("reads dirtied %d pages", n)
	}
}

func TestDirtySetAndClear(t *testing.T) {
	as := NewAddressSpace()
	mapOne(t, as, dirtyBase, 8, "d")
	as.WriteU8(dirtyBase+0*PageSize, 1)
	as.WriteU8(dirtyBase+3*PageSize, 1)
	as.WriteU8(dirtyBase+7*PageSize, 1)

	want := []PageNum{PageOf(dirtyBase), PageOf(dirtyBase) + 3, PageOf(dirtyBase) + 7}
	got := as.DirtySetIn(dirtyBase, 8)
	if len(got) != len(want) {
		t.Fatalf("DirtySetIn = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DirtySetIn = %v, want %v", got, want)
		}
	}
	if n := as.DirtyPagesIn(dirtyBase, 4); n != 2 {
		t.Fatalf("DirtyPagesIn(first 4) = %d, want 2", n)
	}

	as.ClearDirty(dirtyBase, 4)
	if as.PageDirty(PageOf(dirtyBase)) || as.PageDirty(PageOf(dirtyBase)+3) {
		t.Fatal("ClearDirty left bits in range set")
	}
	if !as.PageDirty(PageOf(dirtyBase) + 7) {
		t.Fatal("ClearDirty cleared a bit outside its range")
	}
	as.ClearDirty(dirtyBase, 8)
	if n := as.DirtyPages(); n != 0 {
		t.Fatalf("ClearDirty over the mapping left %d dirty pages", n)
	}

	// Re-dirtying after a clear works (the baseline advances, tracking does not stop).
	as.WriteU8(dirtyBase+3*PageSize, 2)
	if !as.PageDirty(PageOf(dirtyBase) + 3) {
		t.Fatal("write after ClearDirty did not re-set the bit")
	}
}

// Regression: Grow must reject mappings the address space does not own —
// growing a stale or foreign *Mapping used to corrupt the sorted
// non-overlapping invariant silently.
func TestGrowRejectsForeignMapping(t *testing.T) {
	as := NewAddressSpace()
	m := mapOne(t, as, dirtyBase, 2, "own")

	other := NewAddressSpace()
	foreign := mapOne(t, other, dirtyBase, 2, "foreign")
	if err := as.Grow(foreign, 1); err == nil {
		t.Fatal("Grow accepted a mapping owned by another address space")
	}

	// A stale mapping from before an Unmap is just as foreign.
	if err := as.Unmap(dirtyBase); err != nil {
		t.Fatal(err)
	}
	if err := as.Grow(m, 1); err == nil {
		t.Fatal("Grow accepted a stale mapping after Unmap")
	}
	if m.Pages != 2 {
		t.Fatalf("rejected Grow still mutated the mapping: %d pages", m.Pages)
	}

	// The legitimate path still works.
	m2 := mapOne(t, as, dirtyBase, 2, "fresh")
	if err := as.Grow(m2, 3); err != nil {
		t.Fatalf("Grow of an owned mapping failed: %v", err)
	}
	if m2.Pages != 5 {
		t.Fatalf("Grow: %d pages, want 5", m2.Pages)
	}
}

// Regression: zeroing a whole page releases its frame back to unmaterialized
// (shrinking ResidentPages and the checksum working set) while keeping the
// page in the dirty set — its content did change.
func TestZeroReleasesFullyZeroedFrames(t *testing.T) {
	as := NewAddressSpace()
	mapOne(t, as, dirtyBase, 4, "z")
	for i := 0; i < 4; i++ {
		as.WriteU64(dirtyBase+VAddr(i)*PageSize+128, 0xFFFF)
	}
	if got := as.ResidentPages(); got != 4 {
		t.Fatalf("ResidentPages = %d, want 4", got)
	}
	as.ClearDirty(dirtyBase, 4)

	// A large clear spanning three pages releases all three.
	as.Zero(dirtyBase, 3*PageSize)
	if got := as.ResidentPages(); got != 1 {
		t.Fatalf("ResidentPages after Zero = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		p := PageOf(dirtyBase) + PageNum(i)
		if as.PageResident(p) {
			t.Fatalf("page %d still resident after full-page zero", i)
		}
		if !as.PageDirty(p) {
			t.Fatalf("page %d lost its dirty bit on release", i)
		}
		if got := as.PageChecksum(p); got != Checksum(make([]byte, PageSize)) {
			t.Fatalf("page %d checksum %#x, want zero page", i, got)
		}
	}

	// A partial zero that leaves nonzero bytes keeps the frame.
	as.Zero(dirtyBase+3*PageSize, 64)
	if !as.PageResident(PageOf(dirtyBase) + 3) {
		t.Fatal("partial zero released a frame with live bytes")
	}
	// But a partial zero that happens to clear the last nonzero bytes releases it.
	as.Zero(dirtyBase+3*PageSize+96, 64)
	if as.PageResident(PageOf(dirtyBase) + 3) {
		t.Fatal("frame left resident although every byte reads zero")
	}
	if got := as.ReadU64(dirtyBase + 3*PageSize + 128); got != 0 {
		t.Fatalf("released page reads %#x, want 0", got)
	}
}

// Dirty bits ride the frames through MovePages/UnmovePages and are duplicated
// by CopyPages and Clone.
func TestDirtyBitTransfer(t *testing.T) {
	as := NewAddressSpace()
	mapOne(t, as, dirtyBase, 4, "src")
	as.WriteU64(dirtyBase, 1)            // page 0: dirty
	as.WriteU64(dirtyBase+2*PageSize, 2) // page 2: dirty, then cleaned
	as.ClearDirty(dirtyBase+2*PageSize, 1)

	dst := NewAddressSpace()
	if _, err := as.MovePages(dst, dirtyBase, 4); err != nil {
		t.Fatal(err)
	}
	if !dst.PageDirty(PageOf(dirtyBase)) {
		t.Fatal("MovePages dropped a dirty bit")
	}
	if dst.PageDirty(PageOf(dirtyBase) + 2) {
		t.Fatal("MovePages invented a dirty bit on a cleaned page")
	}

	// UnmovePages hands the bits back (including one set while in dst).
	dst.FlipBit(dirtyBase+2*PageSize+7, 1)
	dst.UnmovePages(as, dirtyBase, 4)
	if !as.PageDirty(PageOf(dirtyBase)) || !as.PageDirty(PageOf(dirtyBase)+2) {
		t.Fatal("UnmovePages lost dirty bits on rollback")
	}

	// CopyPages and Clone duplicate the tracking state.
	cp := NewAddressSpace()
	if _, err := as.CopyPages(cp, dirtyBase, 4, KindCustom, "cp"); err != nil {
		t.Fatal(err)
	}
	cl := as.Clone()
	for i := 0; i < 4; i++ {
		p := PageOf(dirtyBase) + PageNum(i)
		if cp.PageDirty(p) != as.PageDirty(p) {
			t.Fatalf("CopyPages dirty bit mismatch on page %d", i)
		}
		if cl.PageDirty(p) != as.PageDirty(p) {
			t.Fatalf("Clone dirty bit mismatch on page %d", i)
		}
	}
}

// BenchmarkMapOverlapCheck pins the satellite fix: Map's overlap check is a
// binary search, so building n mappings is O(n log n), not O(n²).
func BenchmarkMapOverlapCheck(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("mappings=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				as := NewAddressSpace()
				for j := 0; j < n; j++ {
					// Two-page stride leaves a gap so every Map exercises the
					// overlap probe against a fully populated sorted slice.
					start := dirtyBase + VAddr(j)*2*PageSize
					if _, err := as.Map(start, 1, KindMmap, "m"); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDirtyTrackingWrite measures the per-write overhead of soft-dirty
// maintenance on the hottest store path.
func BenchmarkDirtyTrackingWrite(b *testing.B) {
	as := NewAddressSpace()
	mapOne(b, as, dirtyBase, 64, "w")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.WriteU64(dirtyBase+VAddr(i%(64*PageSize/8))*8, uint64(i))
	}
}
