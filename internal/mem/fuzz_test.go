package mem

// Fuzz targets for the integrity primitive and the page I/O substrate. The
// FNV-1a checksum is the detector every preserve_exec integrity check rests
// on, and its contract is exact: any single-bit flip anywhere in a preserved
// page must change the sum (each FNV-1a step is injective in the running
// state, so one flipped input bit can never cancel), and flipping the same
// bit back must restore it. The page I/O target checks that WriteAt/ReadBytes
// round-trip arbitrary payloads at arbitrary offsets and that PageChecksum
// always agrees with hashing what ReadAt observes — including unmaterialized
// all-zero frames.

import (
	"bytes"
	"testing"
)

const fuzzBase = VAddr(0x4000_0000)

// FuzzChecksumFlip: single-bit corruption is always detected, and is an
// involution on the checksum.
func FuzzChecksumFlip(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0))
	f.Add([]byte{0}, uint32(0), uint32(0))
	f.Add([]byte("phoenix preserve_exec"), uint32(7), uint32(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 257), uint32(256), uint32(7))

	f.Fuzz(func(t *testing.T, data []byte, off, bit uint32) {
		if len(data) > 2*PageSize {
			data = data[:2*PageSize]
		}
		as := NewAddressSpace()
		if _, err := as.Map(fuzzBase, 2, KindCustom, "fuzz"); err != nil {
			t.Fatal(err)
		}
		as.WriteAt(fuzzBase, data)

		p := PageOf(fuzzBase)
		before := as.PageChecksum(p)
		if want := Checksum(as.ReadBytes(PageBase(fuzzBase), PageSize)); before != want {
			t.Fatalf("PageChecksum %#x disagrees with Checksum over ReadBytes %#x", before, want)
		}

		addr := fuzzBase + VAddr(off)%PageSize
		as.FlipBit(addr, uint(bit))
		flipped := as.PageChecksum(p)
		if flipped == before {
			t.Fatalf("bit flip at %#x bit %d left the page checksum at %#x", uint64(addr), bit%8, before)
		}
		as.FlipBit(addr, uint(bit))
		if restored := as.PageChecksum(p); restored != before {
			t.Fatalf("flip-back did not restore the checksum: %#x != %#x", restored, before)
		}

		// The pure function obeys the same contract without an address space.
		if len(data) > 0 {
			c1 := Checksum(data)
			i := int(off) % len(data)
			data[i] ^= 1 << (bit % 8)
			if c2 := Checksum(data); c2 == c1 {
				t.Fatalf("Checksum collision across a single-bit flip at byte %d", i)
			}
			data[i] ^= 1 << (bit % 8)
			if c3 := Checksum(data); c3 != c1 {
				t.Fatalf("Checksum not restored by flip-back: %#x != %#x", c3, c1)
			}
		}
	})
}

// FuzzPageIO: WriteAt/ReadBytes round-trip across page boundaries, and
// checksums track content, not materialization history.
func FuzzPageIO(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0xAB}, uint32(PageSize-1))                     // straddle-adjacent last byte
	f.Add(bytes.Repeat([]byte{0x5A}, 300), uint32(PageSize-10)) // crosses the boundary
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 100), uint32(17))

	f.Fuzz(func(t *testing.T, data []byte, off uint32) {
		const pages = 4
		if len(data) > 2*PageSize {
			data = data[:2*PageSize]
		}
		as := NewAddressSpace()
		if _, err := as.Map(fuzzBase, pages, KindCustom, "fuzz"); err != nil {
			t.Fatal(err)
		}
		span := pages*PageSize - len(data)
		addr := fuzzBase + VAddr(int(off)%(span+1))
		as.WriteAt(addr, data)
		if got := as.ReadBytes(addr, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("round-trip at %#x: wrote %d bytes, read them back differently", uint64(addr), len(data))
		}

		// Every page's checksum equals the hash of what a reader observes,
		// whether or not the write materialized that frame.
		for i := 0; i < pages; i++ {
			p := PageOf(fuzzBase) + PageNum(i)
			want := Checksum(as.ReadBytes(fuzzBase+VAddr(i*PageSize), PageSize))
			if got := as.PageChecksum(p); got != want {
				t.Fatalf("page %d: PageChecksum %#x != Checksum(ReadBytes) %#x", i, got, want)
			}
		}

		// A write of zeros is indistinguishable from no write at all: the
		// checksum tracks content, not materialization history.
		asZ := NewAddressSpace()
		if _, err := asZ.Map(fuzzBase, 1, KindCustom, "zero"); err != nil {
			t.Fatal(err)
		}
		asZ.WriteAt(fuzzBase, make([]byte, min(len(data), PageSize)))
		if asZ.PageChecksum(PageOf(fuzzBase)) != Checksum(make([]byte, PageSize)) {
			t.Fatal("explicit zero write changed the page checksum away from the zero page")
		}
	})
}

// pageState is the observable state of one page: what a reader sees, what the
// integrity layer would stamp, and what the preservation machinery tracks.
type pageState struct {
	content  []byte
	sum      uint64
	dirty    bool
	resident bool
}

func capturePages(as *AddressSpace, base VAddr, pages int) []pageState {
	out := make([]pageState, pages)
	for i := 0; i < pages; i++ {
		p := PageOf(base) + PageNum(i)
		out[i] = pageState{
			content:  as.ReadBytes(base+VAddr(i)*PageSize, PageSize),
			sum:      as.PageChecksum(p),
			dirty:    as.PageDirty(p),
			resident: as.PageResident(p),
		}
	}
	return out
}

type mappingState struct {
	start VAddr
	pages int
	kind  Kind
	name  string
}

func captureMappings(as *AddressSpace) []mappingState {
	var out []mappingState
	for _, m := range as.Mappings() {
		out = append(out, mappingState{m.Start, m.Pages, m.Kind, m.Name})
	}
	return out
}

// FuzzMoveUnmoveRoundTrip: MovePages followed by UnmovePages restores the
// source byte-exactly — mappings, frame residency, dirty bits, and per-page
// checksums — and leaves the destination empty, for arbitrary ranges that
// partially cover several mappings. This is the rollback contract preserve_exec
// leans on when a mid-commit fault aborts the transfer: the dying process must
// come back exactly as it was, including the soft-dirty baseline.
func FuzzMoveUnmoveRoundTrip(f *testing.F) {
	f.Add([]byte("phoenix"), uint32(0), uint32(9), uint32(0), uint32(0))
	f.Add(bytes.Repeat([]byte{0xEE}, 5000), uint32(1), uint32(6), uint32(2*PageSize), uint32(7*PageSize+3))
	f.Add([]byte{1}, uint32(4), uint32(2), uint32(PageSize), uint32(0))    // inside middle mapping
	f.Add([]byte{}, uint32(2), uint32(4), uint32(3*PageSize), uint32(100)) // straddles all three

	f.Fuzz(func(t *testing.T, data []byte, startPg, numPg, zeroOff, flipOff uint32) {
		const totalPages = 9
		if len(data) > 3*PageSize {
			data = data[:3*PageSize]
		}
		src := NewAddressSpace()
		// Three adjacent mappings — pages [0,3), [3,5), [5,9) — so a single
		// move range can partially cover more than one of them.
		for _, m := range []struct {
			pg, n int
			name  string
		}{{0, 3, "a"}, {3, 2, "b"}, {5, 4, "c"}} {
			if _, err := src.Map(fuzzBase+VAddr(m.pg)*PageSize, m.n, KindCustom, m.name); err != nil {
				t.Fatal(err)
			}
		}
		// Mutate through several paths so the snapshot holds a mix of
		// resident/non-resident and dirty/clean pages.
		span := totalPages*PageSize - len(data)
		src.WriteAt(fuzzBase+VAddr(int(zeroOff)%(span+1)), data)
		src.Zero(fuzzBase+VAddr(zeroOff)%(totalPages*PageSize-64), 64)
		src.FlipBit(fuzzBase+VAddr(flipOff)%(totalPages*PageSize), uint(flipOff))
		src.ClearDirty(fuzzBase, int(startPg)%totalPages+1)

		before := capturePages(src, fuzzBase, totalPages)
		beforeMaps := captureMappings(src)

		s := int(startPg) % totalPages
		n := 1 + int(numPg)%(totalPages-s)
		moveStart := fuzzBase + VAddr(s)*PageSize

		dst := NewAddressSpace()
		if _, err := src.MovePages(dst, moveStart, n); err != nil {
			t.Fatal(err)
		}

		// The destination observes exactly the moved pages' pre-move state:
		// zero-copy means content, checksums, and dirty bits are the same
		// physical frames.
		got := capturePages(dst, moveStart, n)
		for i, g := range got {
			w := before[s+i]
			if !bytes.Equal(g.content, w.content) || g.sum != w.sum || g.dirty != w.dirty || g.resident != w.resident {
				t.Fatalf("page %d after MovePages: (sum=%#x dirty=%v resident=%v) want (sum=%#x dirty=%v resident=%v)",
					s+i, g.sum, g.dirty, g.resident, w.sum, w.dirty, w.resident)
			}
		}
		dstPages := 0
		for _, m := range dst.Mappings() {
			dstPages += m.Pages
			orig := src.FindMapping(m.Start)
			if orig == nil || orig.Kind != m.Kind || orig.Name != m.Name {
				t.Fatalf("mirror mapping %q at %#x does not match a source mapping", m.Name, uint64(m.Start))
			}
		}
		if dstPages != n {
			t.Fatalf("destination maps %d pages, want %d", dstPages, n)
		}

		dst.UnmovePages(src, moveStart, n)

		// Source is restored byte-exactly: mappings, content, residency,
		// dirty bits, checksums.
		afterMaps := captureMappings(src)
		if len(afterMaps) != len(beforeMaps) {
			t.Fatalf("mapping count changed across round-trip: %d != %d", len(afterMaps), len(beforeMaps))
		}
		for i := range afterMaps {
			if afterMaps[i] != beforeMaps[i] {
				t.Fatalf("mapping %d changed across round-trip: %+v != %+v", i, afterMaps[i], beforeMaps[i])
			}
		}
		after := capturePages(src, fuzzBase, totalPages)
		for i := range after {
			if !bytes.Equal(after[i].content, before[i].content) {
				t.Fatalf("page %d content changed across round-trip", i)
			}
			if after[i].sum != before[i].sum {
				t.Fatalf("page %d checksum changed across round-trip: %#x != %#x", i, after[i].sum, before[i].sum)
			}
			if after[i].dirty != before[i].dirty {
				t.Fatalf("page %d dirty bit changed across round-trip: %v != %v", i, after[i].dirty, before[i].dirty)
			}
			if after[i].resident != before[i].resident {
				t.Fatalf("page %d residency changed across round-trip: %v != %v", i, after[i].resident, before[i].resident)
			}
		}
		// The destination is fully cleaned up: no mirror mappings, no frames.
		if ms := dst.Mappings(); len(ms) != 0 {
			t.Fatalf("destination still has %d mappings after UnmovePages", len(ms))
		}
		if dst.ResidentPages() != 0 || dst.DirtyPages() != 0 {
			t.Fatal("destination still holds frames after UnmovePages")
		}
	})
}
