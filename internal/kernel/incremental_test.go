package kernel

import (
	"errors"
	"testing"

	"phoenix/internal/faultinject"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

// preserveChain runs one preserve over the region and returns the successor,
// failing the test on error.
func preserveChain(t *testing.T, p *Process, region mem.VAddr, pages int) *Process {
	t.Helper()
	np, err := p.PreserveExec(ExecSpec{
		Ranges: []linker.Range{{Start: region, Len: pages * mem.PageSize}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return np
}

// TestIncrementalPreserveReusesCleanPages is the tentpole contract: the first
// preserve hashes every resident page; a second preserve after touching a few
// pages re-hashes only those, reuses the cached sums for the rest, and still
// reports full verification coverage.
func TestIncrementalPreserveReusesCleanPages(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages = 64
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}

	np := preserveChain(t, p, region, pages)
	h := np.Handoff()
	if h.ReusedChecksums != 0 {
		t.Fatalf("first preserve reused %d checksums with no cache", h.ReusedChecksums)
	}
	if h.VerifiedChecksums != pages {
		t.Fatalf("VerifiedChecksums = %d, want %d", h.VerifiedChecksums, pages)
	}
	if len(h.PageSums) != pages {
		t.Fatalf("verified commit cached %d sums, want %d", len(h.PageSums), pages)
	}
	// The successor's preserved pages start clean: the commit is the baseline.
	if n := np.AS.DirtyPagesIn(region, pages); n != 0 {
		t.Fatalf("%d preserved pages dirty in successor after verified commit", n)
	}

	// Touch 3 pages, preserve again: exactly pages-3 sums are reused.
	const touched = 3
	for i := 0; i < touched; i++ {
		np.AS.WriteU64(region+mem.VAddr(i*7)*mem.PageSize, 0xBEEF)
	}
	before := m.Clock.Now()
	np2 := preserveChain(t, np, region, pages)
	elapsed := m.Clock.Now() - before
	h2 := np2.Handoff()
	if h2.ReusedChecksums != pages-touched {
		t.Fatalf("ReusedChecksums = %d, want %d", h2.ReusedChecksums, pages-touched)
	}
	if h2.VerifiedChecksums != pages {
		t.Fatalf("incremental preserve verified %d, want full coverage %d", h2.VerifiedChecksums, pages)
	}
	if got := m.Counters.ChecksumsReused.Load(); got != int64(pages-touched) {
		t.Fatalf("ChecksumsReused counter = %d, want %d", got, pages-touched)
	}
	// The charge matches the delta model: 2 hashes (stage+verify) per touched
	// page, scan over everything.
	if want := m.Model.PreserveExecDelta(pages, 0, 2*touched, pages); elapsed != want {
		t.Fatalf("incremental preserve charged %v, want %v", elapsed, want)
	}
	// And the new cache reflects the touched pages' new content.
	for i := 0; i < pages; i++ {
		pg := mem.PageOf(region) + mem.PageNum(i)
		if want := np2.AS.PageChecksum(pg); h2.PageSums[pg] != want {
			t.Fatalf("cached sum for page %d is stale: %#x != %#x", i, h2.PageSums[pg], want)
		}
	}
}

// TestIncrementalCatchesCorruptionOnCleanPage is the key adversarial case
// from the issue: a bit flip lands in the Byzantine window on a page whose
// sum was reused from the cache. FlipBit sets the frame's soft-dirty bit (an
// MMU property, not store instrumentation), so the incremental verify walk
// re-hashes exactly that page and the preserve aborts — identically to the
// full walk.
func TestIncrementalCatchesCorruptionOnCleanPage(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages = 16
	m := NewMachine(1)
	m.AuditIncremental = true
	inj := faultinject.New()
	inj.RegisterRecovery()
	m.Inj = inj
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	np := preserveChain(t, p, region, pages)

	// No writes at all since the commit: every sum will be a cache reuse, so
	// the flipped page is as "clean" as a page can be.
	inj.ArmAfter(faultinject.SitePreserveCorrupt, faultinject.BitFlip, 5)
	inj.Enable()
	_, err := np.PreserveExec(ExecSpec{
		Ranges: []linker.Range{{Start: region, Len: pages * mem.PageSize}},
	})
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("corruption of a cache-clean page not caught: err=%v", err)
	}
	if m.Counters.ChecksumMismatches.Load() != 1 {
		t.Fatalf("counters: %s", m.Counters)
	}
	if got := m.Counters.IncrementalAuditDivergences.Load(); got != 0 {
		t.Fatalf("audit divergences = %d: incremental and full walks disagreed", got)
	}

	// The rolled-back source keeps its dirty bits — including the one the
	// flip set — and its cache, so a retry re-hashes the flipped page and
	// commits the (now corrupted but honestly hashed) content.
	if np.Dead() {
		t.Fatal("source dead after incremental integrity abort")
	}
	if np.AS.DirtyPagesIn(region, pages) == 0 {
		t.Fatal("rollback lost the dirty bit the corruption set")
	}
	np2 := preserveChain(t, np, region, pages)
	h := np2.Handoff()
	if h.ReusedChecksums != pages-1 {
		t.Fatalf("retry reused %d sums, want %d (all but the flipped page)", h.ReusedChecksums, pages-1)
	}
	if m.Counters.IncrementalAuditDivergences.Load() != 0 {
		t.Fatal("audit divergence on the retry")
	}
}

// TestSkipVerifyPropagatesNoBaseline pins the laundering defence: a
// SkipVerify commit hands over no checksum cache and clears no dirty bits, so
// the next verified preserve hashes everything fresh instead of trusting sums
// nothing ever verified.
func TestSkipVerifyPropagatesNoBaseline(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages = 8
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	np, err := p.PreserveExec(ExecSpec{
		Ranges:     []linker.Range{{Start: region, Len: pages * mem.PageSize}},
		SkipVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if np.Handoff().PageSums != nil {
		t.Fatal("SkipVerify commit handed over a checksum cache")
	}
	if n := np.AS.DirtyPagesIn(region, pages); n != pages {
		t.Fatalf("SkipVerify commit cleared dirty bits: %d/%d still set", n, pages)
	}
	np2 := preserveChain(t, np, region, pages)
	if r := np2.Handoff().ReusedChecksums; r != 0 {
		t.Fatalf("preserve after SkipVerify reused %d unverified sums", r)
	}
}

// TestMidCommitFaultKeepsDeltaBaseline: an injected mid-commit failure rolls
// the transfer back without clearing dirty bits or invalidating the cache, so
// the retry still gets the incremental win and the delta invariant holds.
func TestMidCommitFaultKeepsDeltaBaseline(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages = 32
	m := NewMachine(1)
	m.AuditIncremental = true
	inj := faultinject.New()
	inj.RegisterRecovery()
	m.Inj = inj
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	np := preserveChain(t, p, region, pages)

	const touched = 4
	for i := 0; i < touched; i++ {
		np.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, 0xDEAD)
	}
	dirtyBefore := np.AS.DirtyPagesIn(region, pages)

	inj.Arm(faultinject.SitePreserveMove, faultinject.OpFailure)
	inj.Enable()
	if _, err := np.PreserveExec(ExecSpec{
		Ranges: []linker.Range{{Start: region, Len: pages * mem.PageSize}},
	}); err == nil {
		t.Fatal("injected move failure did not abort")
	}
	if np.Dead() {
		t.Fatal("source dead after mid-commit abort")
	}
	if got := np.AS.DirtyPagesIn(region, pages); got != dirtyBefore {
		t.Fatalf("mid-commit abort changed the dirty set: %d != %d", got, dirtyBefore)
	}

	np2 := preserveChain(t, np, region, pages)
	h := np2.Handoff()
	if h.ReusedChecksums != pages-touched {
		t.Fatalf("retry reused %d sums, want %d", h.ReusedChecksums, pages-touched)
	}
	for i := 0; i < pages; i++ {
		want := uint64(i) + 1
		if i < touched {
			want = 0xDEAD
		}
		if got := np2.AS.ReadU64(region + mem.VAddr(i)*mem.PageSize); got != want {
			t.Fatalf("page %d content %#x after retry, want %#x", i, got, want)
		}
	}
	if m.Counters.IncrementalAuditDivergences.Load() != 0 {
		t.Fatal("audit divergence across fault + retry")
	}
}

// TestIncrementalHandlesReleasedAndRemappedPages covers the cache-staleness
// hazards: a page the app zeroed wholesale (frame released, dirty bit kept)
// and a page unmapped and remapped (cache entry present but frame gone) must
// both re-enter the walk as fresh zero-page sums, never reuse the stale
// cached content sum.
func TestIncrementalHandlesReleasedAndRemappedPages(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages = 8
	m := NewMachine(1)
	m.AuditIncremental = true
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	np := preserveChain(t, p, region, pages)

	// Whole-page zero: frame released, page stays dirty.
	np.AS.Zero(region, mem.PageSize)
	// Unmap + remap the region: every frame (and dirty entry) is dropped, so
	// the cache has sums for pages that now read as zeros.
	if err := np.AS.Unmap(region); err != nil {
		t.Fatal(err)
	}
	if _, err := np.AS.Map(region, pages, mem.KindCustom, "state2"); err != nil {
		t.Fatal(err)
	}
	np2 := preserveChain(t, np, region, pages)
	h := np2.Handoff()
	if h.ReusedChecksums != 0 {
		t.Fatalf("reused %d cached sums for non-resident pages", h.ReusedChecksums)
	}
	zero := mem.Checksum(make([]byte, mem.PageSize))
	for i := 0; i < pages; i++ {
		pg := mem.PageOf(region) + mem.PageNum(i)
		if h.PageSums[pg] != zero {
			t.Fatalf("page %d cached %#x, want zero-page sum %#x", i, h.PageSums[pg], zero)
		}
	}
	if m.Counters.IncrementalAuditDivergences.Load() != 0 {
		t.Fatal("audit divergence on released/remapped pages")
	}
}

// TestResidentPagesSkipsUntouchedPages checks the denominator checksum reuse
// is measured against: a preserve over k mapped pages that were never
// written moves them and counts their zero-page sums as verified, but does
// not count them resident, and the next preserve reuses the sum of every
// resident page and of no other.
func TestResidentPagesSkipsUntouchedPages(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages, untouched = 16, 5
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := untouched; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	np := preserveChain(t, p, region, pages)
	h := np.Handoff()
	if h.MovedPages != pages || h.VerifiedChecksums != pages || h.ResidentPages != pages-untouched || h.ReusedChecksums != 0 {
		t.Fatalf("first preserve: moved %d, verified %d, resident %d, reused %d; want %d, %d, %d, 0",
			h.MovedPages, h.VerifiedChecksums, h.ResidentPages, h.ReusedChecksums, pages, pages, pages-untouched)
	}
	h2 := preserveChain(t, np, region, pages).Handoff()
	if h2.ResidentPages != pages-untouched || h2.ReusedChecksums != h2.ResidentPages {
		t.Fatalf("second preserve: resident %d, reused %d; want both %d", h2.ResidentPages, h2.ReusedChecksums, pages-untouched)
	}
}
