package kernel

// Fuzz targets for preserve_exec. FuzzPlanRange covers the planner
// geometry: the page-range split in planRange (full-page moves vs partial
// head/tail copies) is exactly where the seed's silent data-loss bug lived,
// so it draws arbitrary (start, len) pairs — two ranges, to reach the
// overlap rejection — against a known mapping, checks the staged plan for
// byte-conservation, per-copy page containment, and checksum accounting, and
// checks the committed preserve byte-exact against the source snapshot.
// FuzzVerdictMatchesFullWalk covers the background integrity verdict.

import (
	"bytes"
	"testing"

	"phoenix/internal/faultinject"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

// fuzzRegion is the only mapping in the fuzzed process, so any byte outside
// it is unmapped by construction.
const (
	fuzzRegion      = mem.VAddr(0x2000_0000)
	fuzzRegionPages = 8
	fuzzSpan        = 16 * mem.PageSize // offsets may land past the mapping
	fuzzMaxLen      = 4 * mem.PageSize
)

// moveSpan returns the aligned [lo,hi) run planRange will hand to planMove,
// or (0,0) when the range stages only partial copies.
func moveSpan(r linker.Range) (mem.VAddr, mem.VAddr) {
	if r.Len <= 0 {
		return 0, 0
	}
	lo := mem.PageBase(r.Start + mem.PageSize - 1)
	hi := mem.PageBase(r.End())
	if hi <= lo {
		return 0, 0
	}
	return lo, hi
}

func FuzzPlanRange(f *testing.F) {
	P := uint32(mem.PageSize)
	// Geometry corners: aligned/unaligned starts and ends, sub-page, page
	// boundary straddles, out-of-mapping, overlapping move spans.
	f.Add(uint32(0), uint32(100), uint32(0), uint32(0))
	f.Add(uint32(0), P, 2*P, 2*P)
	f.Add(uint32(100), 3*P-200, uint32(0), uint32(0))
	f.Add(P-50, uint32(100), 4*P, P+100)
	f.Add(uint32(0), 2*P, P, 2*P)                             // overlapping move spans
	f.Add(uint32(fuzzRegionPages)*P, P, uint32(0), uint32(0)) // starts exactly past the mapping
	f.Add(uint32(7)*P+100, P, uint32(0), uint32(0))           // runs off the mapping end

	f.Fuzz(func(t *testing.T, off1, len1, off2, len2 uint32) {
		m := NewMachine(1)
		p, err := m.Spawn(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AS.Map(fuzzRegion, fuzzRegionPages, mem.KindCustom, "state"); err != nil {
			t.Fatal(err)
		}
		// Deterministic non-trivial content so byte-exactness means something.
		fill := make([]byte, fuzzRegionPages*mem.PageSize)
		for i := range fill {
			fill[i] = byte(i*7 + 13)
		}
		p.AS.WriteAt(fuzzRegion, fill)

		regionEnd := fuzzRegion + mem.VAddr(fuzzRegionPages*mem.PageSize)
		mkRange := func(off, length uint32) linker.Range {
			return linker.Range{
				Start: fuzzRegion + mem.VAddr(off)%mem.VAddr(fuzzSpan),
				Len:   int(length % uint32(fuzzMaxLen)),
			}
		}
		r1, r2 := mkRange(off1, len1), mkRange(off2, len2)
		inBounds := func(r linker.Range) bool {
			return r.Len <= 0 || (r.Start >= fuzzRegion && r.End() <= regionEnd)
		}
		lo1, hi1 := moveSpan(r1)
		lo2, hi2 := moveSpan(r2)
		movesOverlap := hi1 > lo1 && hi2 > lo2 && lo1 < hi2 && lo2 < hi1

		plan, err := p.stagePreserve([]linker.Range{r1, r2}, mem.NullPtr, true)
		if err != nil {
			if inBounds(r1) && inBounds(r2) && !movesOverlap {
				t.Fatalf("in-bounds non-overlapping ranges %+v %+v rejected: %v", r1, r2, err)
			}
			return
		}
		if !inBounds(r1) || !inBounds(r2) {
			t.Fatalf("range leaving the only mapping was staged: %+v %+v", r1, r2)
		}

		// Byte conservation: every byte of every range is staged exactly once
		// within its own range, as a full-page move or a partial copy.
		want := 0
		for _, r := range []linker.Range{r1, r2} {
			if r.Len > 0 {
				want += r.Len
			}
		}
		staged := plan.moved * mem.PageSize
		for _, c := range plan.copies {
			if len(c.data) == 0 || len(c.data) > mem.PageSize {
				t.Fatalf("partial copy of %d bytes at %#x", len(c.data), uint64(c.addr))
			}
			if mem.PageOf(c.addr) != mem.PageOf(c.addr+mem.VAddr(len(c.data))-1) {
				t.Fatalf("partial copy at %#x crosses a page boundary (%d bytes)", uint64(c.addr), len(c.data))
			}
			if c.sum != mem.Checksum(c.data) {
				t.Fatalf("copy checksum staged from other bytes at %#x", uint64(c.addr))
			}
			staged += len(c.data)
		}
		if staged != want {
			t.Fatalf("plan stages %d bytes for %d bytes of ranges (%+v %+v)", staged, want, r1, r2)
		}

		// Checksum and move accounting.
		if plan.copied != len(plan.copies) {
			t.Fatalf("copied=%d but %d copies staged", plan.copied, len(plan.copies))
		}
		sums := 0
		for _, mv := range plan.moves {
			if mv.start%mem.PageSize != 0 {
				t.Fatalf("unaligned page move at %#x", uint64(mv.start))
			}
			if len(mv.sums) != mv.pages {
				t.Fatalf("move of %d pages staged %d checksums", mv.pages, len(mv.sums))
			}
			sums += mv.pages
		}
		if sums != plan.moved {
			t.Fatalf("moved=%d but %d per-page checksums staged", plan.moved, sums)
		}
		if len(plan.movePages) != plan.moved {
			t.Fatalf("moved=%d but movePages tracks %d (duplicate claim slipped through)", plan.moved, len(plan.movePages))
		}
		if plan.checksums() != plan.moved+len(plan.copies) {
			t.Fatalf("checksums()=%d, want moved+copies=%d", plan.checksums(), plan.moved+len(plan.copies))
		}

		// Commit the same geometry for real: the successor must read back the
		// exact bytes of both ranges, and the handoff counts must match the
		// staged plan.
		var snap1, snap2 []byte
		if r1.Len > 0 {
			snap1 = p.AS.ReadBytes(r1.Start, r1.Len)
		}
		if r2.Len > 0 {
			snap2 = p.AS.ReadBytes(r2.Start, r2.Len)
		}
		np, err := p.PreserveExec(ExecSpec{Ranges: []linker.Range{r1, r2}})
		if err != nil {
			t.Fatalf("stageable geometry failed to commit: %v", err)
		}
		if r1.Len > 0 && !bytes.Equal(np.AS.ReadBytes(r1.Start, r1.Len), snap1) {
			t.Fatalf("range %+v not preserved byte-exactly", r1)
		}
		if r2.Len > 0 && !bytes.Equal(np.AS.ReadBytes(r2.Start, r2.Len), snap2) {
			t.Fatalf("range %+v not preserved byte-exactly", r2)
		}
		h := np.Handoff()
		if h.MovedPages != plan.moved || h.CopiedPages != plan.copied {
			t.Fatalf("handoff %d moved / %d copied, plan staged %d / %d",
				h.MovedPages, h.CopiedPages, plan.moved, plan.copied)
		}
	})
}

// FuzzVerdictMatchesFullWalk checks the background verdict against the
// non-incremental walk. Each input draws the preserved runs (one to four
// page runs, with or without a partial-copy tail), which pages are resident,
// whether a clean verdict left a cache, which pages were written since, and
// an optional bit flip on any frame of the second preserve. The verdict must
// report the same first mismatch as verifyFull and be clean exactly when it
// is.
func FuzzVerdictMatchesFullWalk(f *testing.F) {
	f.Add(uint8(0), uint16(0xFFFF), true, uint16(0), int16(-1))
	f.Add(uint8(1), uint16(0xFFFF), true, uint16(0), int16(3))
	f.Add(uint8(2), uint16(0x0F0F), true, uint16(0x0101), int16(9))
	f.Add(uint8(3), uint16(0xFFFF), false, uint16(0xFFFF), int16(0))
	f.Add(uint8(7), uint16(0x00FF), true, uint16(0x8000), int16(12))
	f.Add(uint8(6), uint16(0), true, uint16(0), int16(15))

	f.Fuzz(func(t *testing.T, shape uint8, residentMask uint16, cached bool, dirtyMask uint16, flip int16) {
		const region = mem.VAddr(0x2000_0000)
		const pages = 16
		m := NewMachine(1)
		m.AuditIncremental = true
		inj := faultinject.New()
		inj.RegisterRecovery()
		m.Inj = inj
		p, err := m.Spawn(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AS.Map(region, pages+1, mem.KindCustom, "state"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= pages; i++ {
			if residentMask&(1<<(i%pages)) != 0 {
				p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize+8, uint64(i)*0x9E3779B9+1)
			}
		}
		// shape's low two bits cut the 16 pages into 1-4 runs with a one-page
		// gap after each but the last; bit 2 adds a partial-copy tail.
		runs := int(shape&3) + 1
		per := pages / runs
		var ranges []linker.Range
		var kept [pages]bool
		for r := 0; r < runs; r++ {
			n := per
			if r < runs-1 {
				n--
			}
			ranges = append(ranges, linker.Range{Start: region + mem.VAddr(r*per)*mem.PageSize, Len: n * mem.PageSize})
			for i := r * per; i < r*per+n; i++ {
				kept[i] = true
			}
		}
		if shape&4 != 0 {
			ranges = append(ranges, linker.Range{Start: region + pages*mem.PageSize + 40, Len: 200})
		}
		spec := ExecSpec{Ranges: ranges}

		np, err := p.PreserveExec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			if err := np.Verify().Settle(); err != nil {
				t.Fatalf("unflipped preserve failed its verdict: %v", err)
			}
		}
		for i := 0; i < pages; i++ {
			if kept[i] && dirtyMask&(1<<i) != 0 {
				np.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize+16, uint64(i)+0xD1)
			}
		}
		if flip >= 0 {
			inj.ArmAfter(faultinject.SitePreserveCorrupt, faultinject.BitFlip, int(flip)%(pages+2))
			inj.Enable()
		}
		np2, err := np.PreserveExec(spec)
		if err != nil {
			t.Fatal(err)
		}
		v := np2.Verify()
		full := verifyFull(np2.AS, v.plan)
		if fired := inj.Fired(faultinject.SitePreserveCorrupt); fired != (full != nil) {
			t.Fatalf("flip fired=%v but the full walk reports %v", fired, full)
		}
		err = v.Settle()
		switch {
		case full == nil && err != nil:
			t.Fatalf("verdict failed (%v) where the full walk is clean", err)
		case full != nil && (v.Err == nil || *v.Err != *full):
			t.Fatalf("verdict reports %v, the full walk %v", v.Err, full)
		case m.Counters.IncrementalAuditDivergences.Load() != 0:
			t.Fatal("audit divergence")
		case (np2.Handoff().PageSums == nil) != (full != nil):
			t.Fatalf("cache installed=%v with full walk %v", np2.Handoff().PageSums != nil, full)
		}
	})
}
