package kernel

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"phoenix/internal/faultinject"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

// TestPreserveChecksumRoundTrip checks the integrity pipeline end to end for
// the same geometry matrix the transfer tests use: checksums are staged for
// every moved page and partial copy, verified clean in the new address space
// when the background verdict lands, and reported through both the handoff
// and the machine counters.
func TestPreserveChecksumRoundTrip(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const P = mem.PageSize
	cases := []struct {
		name   string
		start  mem.VAddr
		length int
		sums   int // moved pages + partial copies
	}{
		{"aligned-full-page", region, int(P), 1},
		{"aligned-start-unaligned-end", region, int(P) + 100, 2},
		{"unaligned-both-multipage", region + 100, int(3*P) - 200, 3},
		{"subpage-straddles-boundary", region + P - 50, 100, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(1)
			p, _ := m.Spawn(nil)
			if _, err := p.AS.Map(region, 4, mem.KindCustom, "state"); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, tc.length)
			for i := range want {
				want[i] = byte(i%251 + 1)
			}
			p.AS.WriteAt(tc.start, want)

			np, err := p.PreserveExec(ExecSpec{
				Ranges: []linker.Range{{Start: tc.start, Len: tc.length}},
			})
			if err != nil {
				t.Fatal(err)
			}
			h := np.Handoff()
			if h.VerifiedChecksums != tc.sums {
				t.Fatalf("VerifiedChecksums = %d, want %d", h.VerifiedChecksums, tc.sums)
			}
			if got := m.Counters.ChecksumsVerified.Load(); got != 0 {
				t.Fatalf("ChecksumsVerified = %d before the verdict landed", got)
			}
			settle(t, np)
			if got := m.Counters.ChecksumsVerified.Load(); got != int64(tc.sums) {
				t.Fatalf("ChecksumsVerified = %d, want %d", got, tc.sums)
			}
			if m.Counters.ChecksumMismatches.Load() != 0 {
				t.Fatalf("spurious mismatch: %s", m.Counters)
			}
			if got := np.AS.ReadBytes(tc.start, tc.length); !bytes.Equal(got, want) {
				t.Fatal("preserved bytes differ from source")
			}
		})
	}
}

// TestPreserveCorruptionCaught arms the Byzantine corruption site at several
// depths: the bit flip lands in the new address space between commit and
// verification, the successor starts on it, and the background verdict
// catches it: a failing verdict naming the flipped frame, a counted
// mismatch, and no cache. Moved and copied frames alike, the corruption now
// lives in the successor, which is why the driver answers a failing verdict
// with a memory-discarding fallback, never a retry.
func TestPreserveCorruptionCaught(t *testing.T) {
	const r1 = mem.VAddr(0x2000_0000)
	const r2 = mem.VAddr(0x3000_0000)
	// The plan has four moved pages then one partial copy; skip 4 lands the
	// flip on the copied (partial-page) frame.
	for _, tc := range []struct {
		name string
		skip int
		addr mem.VAddr
	}{
		{"first-moved-frame", 0, r1},
		{"second-moved-frame", 1, r1 + mem.PageSize},
		{"partial-copy-frame", 4, r2 + 2*mem.PageSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(1)
			m.AuditIncremental = true
			inj := faultinject.New()
			inj.RegisterRecovery()
			m.Inj = inj
			p, _ := m.Spawn(testImage())
			if _, err := p.AS.Map(r1, 2, mem.KindCustom, "a"); err != nil {
				t.Fatal(err)
			}
			if _, err := p.AS.Map(r2, 3, mem.KindCustom, "b"); err != nil {
				t.Fatal(err)
			}
			p.AS.WriteU64(r1, 1111)
			p.AS.WriteU64(r1+mem.PageSize, 2222)
			tail := r2 + 2*mem.PageSize
			p.AS.WriteU64(tail, 3333)
			spec := ExecSpec{
				InfoAddr: r1,
				Ranges: []linker.Range{
					{Start: r1, Len: int(2 * mem.PageSize)},
					{Start: r2, Len: int(2*mem.PageSize) + 100},
				},
			}

			inj.ArmAfter(faultinject.SitePreserveCorrupt, faultinject.BitFlip, tc.skip)
			inj.Enable()
			np, err := p.PreserveExec(spec)
			if err != nil {
				t.Fatalf("preserve aborted: %v", err)
			}
			if !inj.Fired(faultinject.SitePreserveCorrupt) {
				t.Fatal("armed corruption never fired")
			}
			v := np.Verify()
			if v.Landed || m.Counters.ChecksumMismatches.Load() != 0 {
				t.Fatal("verdict landed on the restart window")
			}
			var ie *IntegrityError
			if err := v.Settle(); !errors.As(err, &ie) {
				t.Fatalf("verdict is not an IntegrityError: %v", err)
			}
			if ie.Addr != tc.addr || ie.Want == ie.Got {
				t.Fatalf("verdict reports %v, want a mismatch at %#x", ie, uint64(tc.addr))
			}
			if m.Clock.Now() != v.Due {
				t.Fatalf("verdict settled at %v, due at %v", m.Clock.Now(), v.Due)
			}
			if np.Handoff().PageSums != nil {
				t.Fatal("failing verdict installed a checksum cache")
			}
			c := m.Counters
			if c.ChecksumMismatches.Load() != 1 || c.PreservesAborted.Load() != 0 ||
				c.PreservesCommitted.Load() != 1 || c.ChecksumsVerified.Load() != 0 ||
				c.IncrementalAuditDivergences.Load() != 0 {
				t.Fatalf("counters: %s", c)
			}

			// The driver's answer to a failing verdict is a plain fallback
			// exec — discard memory, boot fresh. That must always work.
			fb, err := np.Exec("preserved-state corruption detected")
			if err != nil {
				t.Fatalf("fallback exec after a failing verdict: %v", err)
			}
			if fb.Dead() || fb.Verify() != nil {
				t.Fatal("fallback successor dead or carrying a verdict")
			}
		})
	}
}

// TestPreserveCopyCorruptionRetryCleans checks the fire-once latch end to
// end for the copy path: a flip on a partial-copy frame fails its verdict
// and installs no cache, and the next preserve — a retry from the corrupted
// successor — stages its bytes afresh, is not struck again, and lands clean.
func TestPreserveCopyCorruptionRetryCleans(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	m := NewMachine(1)
	m.AuditIncremental = true
	inj := faultinject.New()
	inj.RegisterRecovery()
	m.Inj = inj
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, 2, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	p.AS.WriteU64(region, 7777)
	// A sub-page range: the plan is a single partial copy, no moves.
	spec := ExecSpec{Ranges: []linker.Range{{Start: region, Len: 100}}}

	inj.Arm(faultinject.SitePreserveCorrupt, faultinject.BitFlip)
	inj.Enable()
	np, err := p.PreserveExec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ie *IntegrityError
	if err := np.Verify().Settle(); !errors.As(err, &ie) || ie.Addr != region || ie.Want == ie.Got {
		t.Fatalf("copy corruption not caught at %#x: %v", uint64(region), err)
	}
	if np.Handoff().PageSums != nil {
		t.Fatal("failing verdict installed a checksum cache")
	}
	np2, err := np.PreserveExec(spec)
	if err != nil {
		t.Fatalf("retry after a failing verdict: %v", err)
	}
	settle(t, np2)
	if np2.Handoff().VerifiedChecksums != 1 {
		t.Fatalf("VerifiedChecksums = %d, want 1", np2.Handoff().VerifiedChecksums)
	}
	if c := m.Counters; c.ChecksumMismatches.Load() != 1 || c.ChecksumsVerified.Load() != 1 ||
		c.IncrementalAuditDivergences.Load() != 0 {
		t.Fatalf("counters: %s", c)
	}
}

// TestPreserveSkipVerifyPassesCorruptionThrough pins the DisableChecksums
// semantics: with SkipVerify set nothing is staged or verified, so an
// injected bit flip survives into the successor — the exact failure mode
// the checksums exist to catch.
func TestPreserveSkipVerifyPassesCorruptionThrough(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	m := NewMachine(1)
	inj := faultinject.New()
	inj.RegisterRecovery()
	m.Inj = inj
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, 2, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2*mem.PageSize)
	for i := range want {
		want[i] = byte(i%251 + 1)
	}
	p.AS.WriteAt(region, want)

	inj.Arm(faultinject.SitePreserveCorrupt, faultinject.BitFlip)
	inj.Enable()
	np, err := p.PreserveExec(ExecSpec{
		Ranges:     []linker.Range{{Start: region, Len: len(want)}},
		SkipVerify: true,
	})
	if err != nil {
		t.Fatalf("SkipVerify preserve aborted: %v", err)
	}
	if !inj.Fired(faultinject.SitePreserveCorrupt) {
		t.Fatal("armed corruption never fired")
	}
	if np.Handoff().VerifiedChecksums != 0 || np.Verify() != nil {
		t.Fatalf("SkipVerify preserve verifies: %d checksums, verdict %v", np.Handoff().VerifiedChecksums, np.Verify())
	}
	m.Clock.Advance(time.Second)
	if m.Counters.ChecksumMismatches.Load() != 0 {
		t.Fatalf("mismatch counted despite SkipVerify: %s", m.Counters)
	}
	if got := np.AS.ReadBytes(region, len(want)); bytes.Equal(got, want) {
		t.Fatal("bit flip did not survive — SkipVerify test exercised nothing")
	}
}

// TestChecksumsOffChargesPaperFormula pins the paper's design: with
// checksums off the stage walk hashes no page, and a preserve of resident
// pages plus a partial copy advances the clock by exactly
// PreserveExec(moved, copied).
func TestChecksumsOffChargesPaperFormula(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages = 16
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages+1, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	ranges := []linker.Range{{Start: region, Len: pages*mem.PageSize + 100}}
	plan, err := p.stagePreserve(ranges, mem.NullPtr, false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.hashed != 0 || plan.resident != 0 || plan.copies[0].sum != 0 {
		t.Fatalf("checksums-off stage hashed %d pages (%d resident, copy sum %#x)",
			plan.hashed, plan.resident, plan.copies[0].sum)
	}
	for _, mv := range plan.moves {
		if mv.sums != nil || mv.cached != nil {
			t.Fatalf("checksums-off stage staged sums for the run at %#x", uint64(mv.start))
		}
	}

	before := m.Clock.Now()
	np, err := p.PreserveExec(ExecSpec{Ranges: ranges, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Clock.Now()-before, m.Model.PreserveExec(pages, 1); got != want {
		t.Fatalf("checksums-off preserve charged %v, want the paper's %v", got, want)
	}
	if h := np.Handoff(); h.MovedPages != pages || h.CopiedPages != 1 || h.PageSums != nil {
		t.Fatalf("handoff %+v", h)
	}
}

// TestKillBeforeVerdictLeavesNoCache: a successor replaced before its
// verdict lands — killed and preserved again — hands its own successor no
// cache, so the next preserve re-hashes every resident page, and the dead
// incarnation's verdict never lands.
func TestKillBeforeVerdictLeavesNoCache(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages, resident = 32, 24
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < resident; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	spec := ExecSpec{Ranges: []linker.Range{{Start: region, Len: pages * mem.PageSize}}}
	np := preserveChain(t, p, region, pages)

	// np carries a cache, so np2's stage reuses every resident sum but the
	// written ones, which its verify walk then re-hashes in the background.
	const written = 4
	for i := 0; i < written; i++ {
		np.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, 0xBEEF)
	}
	np2, err := np.PreserveExec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h := np2.Handoff(); h.ReusedChecksums != resident-written {
		t.Fatalf("stage reused %d sums, want %d", h.ReusedChecksums, resident-written)
	}
	v2 := np2.Verify()
	verified := m.Counters.ChecksumsVerified.Load()

	// The kill: np2 is preserved again before v2 is due.
	before := m.Clock.Now()
	if before >= v2.Due {
		t.Fatalf("window ended at %v, after the verdict was due (%v)", before, v2.Due)
	}
	np3, err := np2.PreserveExec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Clock.Now()-before, m.Model.PreserveExecDelta(pages, 0, resident, pages); got != want {
		t.Fatalf("preserve after the kill charged %v, want %v (every resident page re-hashed)", got, want)
	}
	if h := np3.Handoff(); h.ReusedChecksums != 0 || h.ResidentPages != resident {
		t.Fatalf("preserve after the kill reused %d of %d resident sums", h.ReusedChecksums, h.ResidentPages)
	}
	settle(t, np3)
	if v2.Landed || v2.Settle() != nil || np2.Handoff().PageSums != nil {
		t.Fatal("the dead incarnation's verdict landed")
	}
	if got := m.Counters.ChecksumsVerified.Load() - verified; got != pages {
		t.Fatalf("verdicts counted %d checksums after the kill, want np3's %d", got, pages)
	}
}

// TestWritesBeforeVerdictPayCopyOnWrite: the verify walk reads a
// copy-on-write view of the moved pages, so each moved page the successor
// writes before the verdict lands pays one ForkPerPage fault, charged once
// when the verdict is settled; writes after it, and a second write to the
// same page, pay nothing.
func TestWritesBeforeVerdictPayCopyOnWrite(t *testing.T) {
	const region = mem.VAddr(0x2000_0000)
	const pages, written = 16, 3
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	np, err := p.PreserveExec(ExecSpec{Ranges: []linker.Range{{Start: region, Len: pages * mem.PageSize}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < written; i++ {
		np.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, 0xC0)
		np.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize+8, 0xC1)
	}
	v := np.Verify()
	m.Clock.AdvanceTo(v.Due)
	if !v.Landed || v.Written != written {
		t.Fatalf("verdict landed=%v with %d written pages, want %d", v.Landed, v.Written, written)
	}
	np.AS.WriteU64(region+10*mem.PageSize, 0xC2)
	before := m.Clock.Now()
	if err := v.Settle(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Clock.Now()-before, written*m.Model.ForkPerPage; got != want {
		t.Fatalf("settling charged %v, want %v", got, want)
	}
	before = m.Clock.Now()
	if err := v.Settle(); err != nil || m.Clock.Now() != before {
		t.Fatalf("a second settle charged %v (err %v)", m.Clock.Now()-before, err)
	}
}
