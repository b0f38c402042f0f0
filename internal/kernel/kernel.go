// Package kernel implements the simulated operating-system layer: processes
// with isolated address spaces, signal delivery, watchdog timers, and —
// centrally — the preserve_exec system call of §3.2/§3.3, which creates a
// fresh process image while zero-copy-transferring selected page ranges from
// the dying process at their original virtual addresses.
package kernel

import (
	"fmt"
	"math/rand"
	"time"

	"phoenix/internal/costmodel"
	"phoenix/internal/faultinject"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/metrics"
	"phoenix/internal/simclock"
	"phoenix/internal/storage"
)

// Signal numbers follow the POSIX values the paper's runtime hooks.
type Signal int

const (
	// SIGSEGV is delivered for invalid simulated-memory accesses.
	SIGSEGV Signal = 11
	// SIGABRT is delivered for application asserts and allocator aborts.
	SIGABRT Signal = 6
	// SIGALRM is delivered when a watchdog forces a restart of a hung
	// process.
	SIGALRM Signal = 14
	// SIGKILL tears a process down without running handlers.
	SIGKILL Signal = 9
)

func (s Signal) String() string {
	switch s {
	case SIGSEGV:
		return "SIGSEGV"
	case SIGABRT:
		return "SIGABRT"
	case SIGALRM:
		return "SIGALRM"
	case SIGKILL:
		return "SIGKILL"
	}
	return fmt.Sprintf("signal(%d)", int(s))
}

// Crash is the panic value application code uses for non-memory failures
// (failed asserts, allocator aborts, out-of-memory). The kernel converts it,
// like *mem.Fault, into a signal delivery.
type Crash struct {
	Sig    Signal
	Reason string
	// Component optionally names the application component whose code raised
	// the failure, letting the supervisor try a component-scoped recovery
	// (microreboot) before escalating to a process-level restart.
	Component string
}

func (c *Crash) Error() string { return fmt.Sprintf("kernel: %s: %s", c.Sig, c.Reason) }

// CrashInfo describes a caught failure, handed to the registered signal
// handler.
type CrashInfo struct {
	Sig       Signal
	Reason    string
	Addr      mem.VAddr // faulting address for SIGSEGV
	Time      time.Duration
	Component string // component that raised the failure, when known
}

// Machine is the simulated host: one clock, one cost model, one disk, and a
// PID namespace.
type Machine struct {
	Clock *simclock.Clock
	Model costmodel.Model
	Disk  *storage.Disk

	// Inj, when set, provides the recovery-path fault-injection sites
	// (faultinject.RecoverySites) the kernel consults during preserve_exec.
	// Nil means no injection.
	Inj *faultinject.Injector

	// Counters tracks preserve_exec lifecycle events (plans staged,
	// committed, aborted) machine-wide.
	Counters *metrics.RecoveryCounters

	// AuditIncremental, when set, makes every verified preserve_exec run the
	// full checksum walk alongside the incremental one and count (in
	// Counters.IncrementalAuditDivergences) any commit the incremental walk
	// would pass but the full walk would fail. The audit is a pure read-back:
	// it charges no simulated time and never changes the commit outcome, so
	// exploration campaigns can leave it on for every seed.
	AuditIncremental bool

	// workers overrides the parallel preserve walks' pool width (see
	// parallel.go); only tests set it.
	workers int

	nextPID int
	rng     *rand.Rand
}

// NewMachine boots a simulated machine with the given deterministic seed
// (used only for ASLR layout).
func NewMachine(seed int64) *Machine {
	clk := simclock.New()
	model := costmodel.Default()
	return &Machine{
		Clock:    clk,
		Model:    model,
		Disk:     storage.NewDisk(clk, model),
		Counters: metrics.NewRecoveryCounters(),
		nextPID:  100,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// failAt consults the machine's injector (if any) for an armed OpFailure at
// the given recovery-path site.
func (m *Machine) failAt(site string) bool {
	return m.Inj != nil && m.Inj.Fail(site)
}

// Process is one simulated process.
type Process struct {
	PID     int
	Machine *Machine
	AS      *mem.AddressSpace
	Image   *linker.Image

	// LinkMap is the preserved dynamic-linker map (§3.4's private syscall).
	LinkMap *linker.LinkMap

	// preserved carries the PHOENIX recovery handoff from the prior process
	// when this process was created by PreserveExec.
	preserved *Handoff
	// verify is the background integrity check of that handoff (nil with
	// checksums off).
	verify *Verify

	handlers map[Signal]func(*CrashInfo)
	dead     bool
}

// Handoff is what preserve_exec carries from the old process to the new one:
// the application's recovery-info pointer (which must live in preserved
// memory), the set of preserved ranges, and accounting for the transfer.
type Handoff struct {
	InfoAddr    mem.VAddr
	Ranges      []linker.Range
	MovedPages  int
	CopiedPages int
	// VerifiedChecksums counts the integrity checksums (one per moved frame
	// plus one per partial-page copy) the preserve info block covers and the
	// background verify walk checks (see Verify) — freshly re-hashed pages
	// directly, and clean cached pages by the delta argument (verified at the
	// prior commit, moved by pointer, not dirtied since). Zero with checksums
	// off.
	VerifiedChecksums int
	// ReusedChecksums counts how many of those checksums were reused from the
	// prior verified commit's cache instead of re-hashed — the incremental
	// preservation win.
	ReusedChecksums int
	// ResidentPages counts the fully moved pages whose frame was resident at
	// stage: the reused sums plus the freshly hashed pages. A mapped page
	// that was never written has no frame; it checksums as the zero page in
	// O(1) and is never reused, so reuse is measured against this count.
	// Zero with checksums off, where nothing is staged.
	ResidentPages int
	// PageSums is the per-page checksum cache carried in the preserve info
	// block: the FNV-1a sum of every fully-moved page as of this commit. The
	// next PreserveExec reuses these sums for pages whose soft-dirty bit is
	// still clear, hashing only pages written since. A clean verdict installs
	// it; it stays nil until then, and for good when the verdict fails, the
	// incarnation dies before it lands, or checksums are off — an unverified
	// commit must never become the baseline, or a silently corrupted frame
	// would be laundered into a "known good" sum.
	PageSums map[mem.PageNum]uint64
	// FallbackReason is set when this exec is a non-PHOENIX restart after a
	// fallback decision, so the new process knows recovery mode is off.
	FallbackReason string
}

// IntegrityError reports a preserved frame whose post-commit contents do not
// match the FNV-1a checksum staged into the preserve info block while the
// source was still whole — a bit flip (or torn write) in the preservation
// channel itself. A failing verdict carries it (Verify.Err): the successor
// is already running on the poisoned state, and the caller must fall back to
// the application's default recovery.
type IntegrityError struct {
	Addr mem.VAddr // start of the corrupted frame or partial range
	Want uint64
	Got  uint64
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("kernel: preserve_exec: integrity checksum mismatch at %#x (want %#x, got %#x)",
		uint64(e.Addr), e.Want, e.Got)
}

// aslrSlide picks a page-aligned randomized base offset: 28 bits of entropy,
// floored at 1<<45 so every possible slide lands well above the image bases
// and heap regions the builder and runtime lay out (which stay below a few
// hundred GiB).
func (m *Machine) aslrSlide() mem.VAddr {
	const slideFloor = mem.VAddr(1) << 45
	return slideFloor + mem.VAddr(m.rng.Int63n(1<<28)+1)<<mem.PageShift
}

// Spawn creates a brand-new process from the image: fresh address space,
// fresh ASLR base (the builder should have been laid out against base 0 and
// is slid here — for simplicity our images carry absolute addresses, so the
// slide is recorded but layout reuses the image's own addresses; what
// matters for the PHOENIX contract is that the slide is *reused* across
// PHOENIX restarts, which Spawn vs PreserveExec makes observable).
func (m *Machine) Spawn(img *linker.Image) (*Process, error) {
	m.Clock.Advance(m.Model.Exec())
	p := &Process{
		PID:      m.allocPID(),
		Machine:  m,
		AS:       mem.NewAddressSpace(),
		Image:    img,
		handlers: make(map[Signal]func(*CrashInfo)),
	}
	p.AS.ASLRBase = m.aslrSlide()
	if img != nil {
		if _, err := img.Load(p.AS); err != nil {
			return nil, err
		}
		p.LinkMap = &linker.LinkMap{Image: img, ASLRBase: p.AS.ASLRBase}
	}
	return p, nil
}

func (m *Machine) allocPID() int {
	m.nextPID++
	return m.nextPID
}

// Restore creates a process around an externally reconstructed address
// space — the CRIU restore path. The caller is responsible for charging the
// image-read time; Restore itself charges only the base exec cost.
func (m *Machine) Restore(img *linker.Image, as *mem.AddressSpace) *Process {
	m.Clock.Advance(m.Model.Exec())
	p := &Process{
		PID:      m.allocPID(),
		Machine:  m,
		AS:       as,
		Image:    img,
		handlers: make(map[Signal]func(*CrashInfo)),
	}
	if img != nil {
		p.LinkMap = &linker.LinkMap{Image: img, ASLRBase: as.ASLRBase}
	}
	return p
}

// ExecSpec parameterises PreserveExec.
type ExecSpec struct {
	// InfoAddr is the recovery-info pointer passed by the restart handler.
	// It must point into one of the preserved ranges.
	InfoAddr mem.VAddr
	// Ranges are the byte ranges to preserve. Full pages are moved
	// zero-copy; partial head/tail pages fall back to copying (§3.3).
	Ranges []linker.Range
	// WithSection additionally preserves the image's .phx.* sections.
	WithSection bool
	// SkipVerify turns the integrity checksums off, the paper's design:
	// preserve_exec stages no sums, starts no verify walk and charges
	// exactly Model.PreserveExec(moved, copied).
	SkipVerify bool
}

// PreserveExec implements the PHOENIX system call: it constructs the
// successor process, moves the page-table entries of all preserved ranges
// into it at their original virtual addresses, loads the fresh image into
// the remaining gaps, and tears down the caller. The simulated clock is
// charged per the cost model: the fixed exec cost, per-page PTE moves and
// per-page copies for partial pages, and — with checksums on — the stage
// walk's dirty-bit scan and fresh hashes.
//
// The call is crash-atomic. It runs in two phases: first every range
// transfer is validated and staged against both address spaces — source
// coverage, destination overlap, partial-page geometry, the info-block
// placement, and collisions with non-preserved image sections — without
// touching either process; only once the whole plan is known good are the
// PTE moves and copies committed. A validation failure returns with the
// source process fully intact, and a failure during commit (real or
// injected via the faultinject recovery sites) rolls the applied moves back
// before returning, so the caller can always fall back to the application's
// default recovery instead of inheriting a half-gutted address space.
//
// Integrity is optimistic (§3.6): the successor boots on the moved pages at
// once, and the verify walk runs in the background (see Verify).
func (p *Process) PreserveExec(spec ExecSpec) (*Process, error) {
	if p.dead {
		return nil, fmt.Errorf("kernel: preserve_exec on dead process %d", p.PID)
	}
	m := p.Machine

	ranges := append([]linker.Range(nil), spec.Ranges...)
	if spec.WithSection && p.Image != nil {
		ranges = append(ranges, p.Image.PreservedRanges()...)
	}

	plan, err := p.stagePreserve(ranges, spec.InfoAddr, !spec.SkipVerify)
	if err != nil {
		m.Counters.PreservesAborted.Add(1)
		return nil, err
	}
	m.Counters.PreservesStaged.Add(1)

	np := &Process{
		PID:      m.allocPID(),
		Machine:  m,
		AS:       mem.NewAddressSpace(),
		Image:    p.Image,
		LinkMap:  p.LinkMap, // preserved via the private link_map syscall
		handlers: make(map[Signal]func(*CrashInfo)),
	}
	// ASLR: reuse the prior slide rather than re-randomizing (§3.3).
	np.AS.ASLRBase = p.AS.ASLRBase

	if err := p.commitPreserve(np, plan); err != nil {
		m.Counters.PreservesAborted.Add(1)
		return nil, err
	}
	// The source is gone from here on: a verdict of its own still in flight
	// dies with it and cannot land during the window below.
	p.dead = true

	np.preserved = &Handoff{
		InfoAddr:    spec.InfoAddr,
		Ranges:      ranges,
		MovedPages:  plan.moved,
		CopiedPages: plan.copied,
	}
	window := m.Model.PreserveExec(plan.moved, plan.copied)
	if plan.checksummed {
		np.preserved.VerifiedChecksums = plan.checksums()
		np.preserved.ReusedChecksums = plan.reused
		np.preserved.ResidentPages = plan.resident
		// The restart window also pays the stage walk: a soft-dirty bit scan
		// over every moved page and a fresh hash for each page with no
		// current cached sum.
		window = m.Model.PreserveExecDelta(plan.moved, plan.copied, plan.hashed, plan.moved)
	}
	m.Clock.Advance(window)
	if plan.checksummed {
		// The verify walk starts when the window closes.
		np.verify = np.startVerify(plan)
	}
	m.Counters.PreservesCommitted.Add(1)
	return np, nil
}

// Verify is the background integrity check of one preserve_exec commit with
// checksums on, run the way cross-check validation runs (§3.6): the
// successor serves on the moved pages at once, while the verify walk reads
// them through a copy-on-write view and compares them with the sums staged
// while the source was whole. The walk runs under Clock.RunOffline at
// commit, so its hashing only delays the verdict, which lands on a simclock
// timer at Due:
//
//   - a clean verdict counts the verified and reused sums, and only then
//     do the staged sums become the next preserve's cache (Handoff.PageSums);
//   - a failing one counts a checksum mismatch and sets Err; the caller
//     must fall back to the application's default recovery.
//
// A verdict dies with its incarnation: if the process is killed or replaced
// before Due, nothing lands and its successor inherits no cache.
type Verify struct {
	// Due is the main-clock time the verdict lands: the end of the restart
	// window plus Hashed pages at ChecksumPerPage.
	Due time.Duration
	// Hashed counts the pages the walk re-hashed. The clean cached pages it
	// skipped make up the rest of Handoff.VerifiedChecksums.
	Hashed int
	// Landed is set when the verdict lands. Err is then its mismatch (nil
	// when clean), and Written counts the moved pages the successor wrote
	// before it landed, or before a fork took their faults over (Fork):
	// each took a copy-on-write fault against the verifier's view.
	Landed  bool
	Err     *IntegrityError
	Written int
	// Settled is set once Settle has charged the copy-on-write faults.
	Settled bool

	proc   *Process
	plan   *preservePlan   // held until the verdict lands
	err    *IntegrityError // the walk's result, withheld until Due
	forked bool            // Written was counted at Fork
}

// startVerify runs the verify walk over np's freshly committed pages in the
// background and schedules its verdict.
func (np *Process) startVerify(plan *preservePlan) *Verify {
	m := np.Machine
	v := &Verify{proc: np, plan: plan}
	bg := m.Clock.RunOffline(func() {
		v.err, v.Hashed = verifyChecksums(np.AS, plan, m.poolWidth())
		if m.AuditIncremental && v.err == nil && verifyFull(np.AS, plan) != nil {
			// The incremental walk validated less than the full walk
			// would: a corrupted frame slipped past the delta argument.
			m.Counters.IncrementalAuditDivergences.Add(1)
		}
		m.Clock.Advance(time.Duration(v.Hashed) * m.Model.ChecksumPerPage)
	})
	// The moved pages start clean: from here on a write marks its page for
	// the next preserve's delta walk and for the copy-on-write count.
	for _, mv := range plan.moves {
		np.AS.ClearDirty(mv.start, mv.pages)
	}
	v.Due = m.Clock.Now() + bg
	m.Clock.AfterFunc(bg, v.land)
	return v
}

// land publishes the verdict, unless its incarnation is gone, and releases
// the staged plan.
func (v *Verify) land() {
	np, plan := v.proc, v.plan
	v.plan = nil
	if np.dead {
		return
	}
	m := np.Machine
	v.Landed, v.Err = true, v.err
	if !v.forked {
		for _, mv := range plan.moves {
			v.Written += np.AS.DirtyPagesIn(mv.start, mv.pages)
		}
	}
	if v.Err != nil {
		m.Counters.ChecksumMismatches.Add(1)
		return
	}
	m.Counters.ChecksumsVerified.Add(int64(plan.checksums()))
	m.Counters.ChecksumsReused.Add(int64(plan.reused))
	np.preserved.PageSums = plan.cacheSums()
}

// Settle waits for the verdict if it is still in flight (advancing the main
// clock to Due), charges ForkPerPage for each Written page once, and returns
// the verdict's mismatch, or nil when it was clean. Verdicts are acted on at
// request boundaries and before a process-level recovery; a verdict whose
// incarnation died first never lands, and Settle returns nil.
func (v *Verify) Settle() error {
	m := v.proc.Machine
	if now := m.Clock.Now(); now <= v.Due {
		// Advancing by zero still fires a verdict due now.
		m.Clock.Advance(v.Due - now)
	}
	if v.Landed && !v.Settled {
		v.Settled = true
		m.Clock.Advance(time.Duration(v.Written) * m.Model.ForkPerPage)
	}
	if v.Err != nil {
		return v.Err
	}
	return nil
}

// Fork hands the copy-on-write faults still to come to a fork of the
// successor's pages that starts sharing them with the verifier's view
// while the verdict is in flight (the PHOENIX cleanup's): a page first
// written from then on takes one fault, and the fork pays it. dirty is
// the fork's own scan, the pages dirty when it was taken; Written counts
// the moved ones now, and the verdict does not recount. A landed verdict,
// or one whose incarnation died, is left alone.
func (v *Verify) Fork(dirty []mem.PageNum) {
	if v.Landed || v.plan == nil || v.proc.dead {
		return
	}
	v.forked = true
	for _, p := range dirty {
		if v.plan.movePages[p] {
			v.Written++
		}
	}
}

// Verify returns the background integrity check of the preserve_exec that
// created p, pending or landed, or nil when checksums were off or no
// preserve created p.
func (p *Process) Verify() *Verify { return p.verify }

// pageMove is one staged zero-copy PTE transfer of a contiguous aligned run.
// With checksums on, sums holds the FNV-1a checksum of each page in the run,
// recorded into the preserve info block while the source was still whole,
// and cached[i] marks sums reused from the prior verified commit's cache (the
// page's soft-dirty bit was still clear) rather than re-hashed.
type pageMove struct {
	start  mem.VAddr
	pages  int
	sums   []uint64
	cached []bool
}

// partialCopy is one staged partial-page transfer: the bytes were read from
// the intact source at stage time, so committing them later cannot observe a
// half-moved page. sum is the stage-time checksum of exactly those bytes
// (zero with checksums off).
type partialCopy struct {
	addr mem.VAddr
	data []byte
	kind mem.Kind
	name string
	sum  uint64
}

// preservePlan is a fully validated preserve_exec transfer plan.
type preservePlan struct {
	moves  []pageMove
	copies []partialCopy
	// movePages tracks destination pages claimed by full-page moves, to
	// reject overlapping move ranges up front instead of failing mid-commit.
	movePages map[mem.PageNum]bool
	// pages is every destination page the plan installs (moves and partial
	// copies) — the set the info block must land in.
	pages  map[mem.PageNum]bool
	moved  int
	copied int
	// checksummed reports whether the plan stages integrity sums. hashed
	// counts the full FNV passes the stage walk computed; reused counts sums
	// taken from the prior commit's cache. Together they drive the delta cost
	// model: the restart window is charged for hashed pages plus a per-page
	// dirty-bit scan, not for the preserved set.
	checksummed bool
	hashed      int
	reused      int
	// resident counts the moved pages whose frame was resident at stage.
	resident int
}

// checksums returns the number of integrity checksums the plan stages: one
// per moved frame plus one per partial copy.
func (plan *preservePlan) checksums() int { return plan.moved + len(plan.copies) }

// cacheSums builds the per-page checksum cache a clean verdict hands to the
// successor: the sum of every fully-moved page. Pages that only received a
// partial copy are excluded — the rest of such a page is image- or
// zero-backed, so its full-page sum is not what was staged, and partial
// copies are restaged fresh on every preserve anyway.
func (plan *preservePlan) cacheSums() map[mem.PageNum]uint64 {
	out := make(map[mem.PageNum]uint64, plan.moved)
	for _, mv := range plan.moves {
		for i := 0; i < mv.pages; i++ {
			out[mem.PageOf(mv.start)+mem.PageNum(i)] = mv.sums[i]
		}
	}
	return out
}

// stagePreserve validates every range against both address spaces and stages
// the transfers without mutating anything. Partial-page bytes are captured
// here, while the source is still whole, and with checksums on every
// transferred page's sum is staged too.
func (p *Process) stagePreserve(ranges []linker.Range, infoAddr mem.VAddr, checksummed bool) (*preservePlan, error) {
	plan := &preservePlan{
		movePages:   make(map[mem.PageNum]bool),
		pages:       make(map[mem.PageNum]bool),
		checksummed: checksummed,
	}
	for _, r := range ranges {
		if r.Len <= 0 {
			continue
		}
		if err := p.planRange(plan, r); err != nil {
			return nil, err
		}
	}
	if infoAddr != mem.NullPtr && !plan.pages[mem.PageOf(infoAddr)] {
		return nil, fmt.Errorf("kernel: preserve_exec: info block %#x not in a preserved range",
			uint64(infoAddr))
	}
	// The dynamic linker refuses to reload a non-preserved section over a
	// kernel-installed range; catch that collision before commit rather than
	// after the address space has been gutted.
	if p.Image != nil {
		for _, s := range p.Image.Sections {
			if !s.Kind.Preserved() && plan.pages[mem.PageOf(s.Addr)] {
				return nil, fmt.Errorf("kernel: preserve_exec: preserved range covers non-preserved section %s at %#x",
					s.Kind, uint64(s.Addr))
			}
		}
	}
	return plan, nil
}

// planRange splits r into full-page moves and partial head/tail copies and
// validates each piece. A sub-page range — whether or not its start is
// page-aligned — becomes a single partial copy; the old geometry dropped
// page-aligned sub-page ranges entirely.
func (p *Process) planRange(plan *preservePlan, r linker.Range) error {
	start, end := r.Start, r.End()
	alignedStart := mem.PageBase(start + mem.PageSize - 1) // round up
	alignedEnd := mem.PageBase(end)                        // round down

	if alignedEnd < alignedStart {
		// The whole range sits inside one partial page.
		return p.planCopy(plan, start, end)
	}
	if start < alignedStart {
		if err := p.planCopy(plan, start, alignedStart); err != nil {
			return err
		}
	}
	if alignedEnd > alignedStart {
		if err := p.planMove(plan, alignedStart, alignedEnd); err != nil {
			return err
		}
	}
	if alignedEnd < end {
		if err := p.planCopy(plan, alignedEnd, end); err != nil {
			return err
		}
	}
	return nil
}

// planCopy stages the partial-page transfer of [lo,hi), which lies within a
// single page.
func (p *Process) planCopy(plan *preservePlan, lo, hi mem.VAddr) error {
	src := p.AS.FindMapping(lo)
	if src == nil {
		return fmt.Errorf("kernel: preserve range %#x unmapped in source", uint64(lo))
	}
	cp := partialCopy{
		addr: lo,
		data: p.AS.ReadBytes(lo, int(hi-lo)),
		kind: src.Kind,
		name: src.Name + "(partial)",
	}
	if plan.checksummed {
		cp.sum = mem.Checksum(cp.data)
		plan.hashed++ // partial copies are always freshly hashed, never cached
	}
	plan.copies = append(plan.copies, cp)
	plan.pages[mem.PageOf(lo)] = true
	plan.copied++
	return nil
}

// planMove stages the zero-copy transfer of the aligned run [lo,hi),
// validating full source coverage and that no earlier range already claims
// any of its pages as a full-page move.
func (p *Process) planMove(plan *preservePlan, lo, hi mem.VAddr) error {
	for cur := lo; cur < hi; {
		mp := p.AS.FindMapping(cur)
		if mp == nil {
			return fmt.Errorf("kernel: preserve range %#x unmapped in source", uint64(cur))
		}
		cur = mp.End()
	}
	for pg := mem.PageOf(lo); pg < mem.PageOf(hi); pg++ {
		if plan.movePages[pg] {
			return fmt.Errorf("kernel: preserve_exec: overlapping preserved ranges at %#x",
				uint64(pg)<<mem.PageShift)
		}
		plan.movePages[pg] = true
		plan.pages[pg] = true
	}
	pages := int((hi - lo) / mem.PageSize)
	plan.moved += pages
	if !plan.checksummed {
		plan.moves = append(plan.moves, pageMove{start: lo, pages: pages})
		return nil
	}
	sums := make([]uint64, pages)
	cached := make([]bool, pages)
	hashed := make([]bool, pages)
	var cache map[mem.PageNum]uint64
	if p.preserved != nil {
		cache = p.preserved.PageSums
	}
	// The staging walk is pure per-page reads against the quiescent source,
	// so it fans out over the preserve worker pool; every worker writes only
	// its own index range and the counters are folded afterwards in page
	// order, keeping the plan byte-identical for any pool width.
	parallelRanges(pages, p.Machine.poolWidth(), func(wlo, whi int) {
		for i := wlo; i < whi; i++ {
			pg := mem.PageOf(lo) + mem.PageNum(i)
			// Reuse the cached sum only when it is provably current: the page
			// was verified at the last commit, its frame is still resident
			// (Unmap or a whole-page Zero since would have released it), and no
			// write path has set its soft-dirty bit. Everything else is hashed
			// fresh — which for a non-resident page is the O(1) zero-page sum,
			// never a stale cache entry.
			if c, ok := cache[pg]; ok && p.AS.PageResident(pg) && !p.AS.PageDirty(pg) {
				sums[i] = c
				cached[i] = true
			} else {
				sums[i] = p.AS.PageChecksum(pg)
				hashed[i] = p.AS.PageResident(pg)
			}
		}
	})
	for i := range sums {
		if cached[i] {
			plan.reused++
		} else if hashed[i] {
			plan.hashed++
		}
		if cached[i] || hashed[i] {
			plan.resident++
		}
	}
	plan.moves = append(plan.moves, pageMove{start: lo, pages: pages, sums: sums, cached: cached})
	return nil
}

// commitPreserve applies a staged plan to the successor. Any failure —
// injected through the faultinject recovery sites or surfaced by the memory
// substrate — rolls back the page moves already applied, leaving the source
// address space exactly as it was before the call.
func (p *Process) commitPreserve(np *Process, plan *preservePlan) error {
	m := p.Machine
	if m.failAt(faultinject.SitePreservePlan) {
		return fmt.Errorf("kernel: preserve_exec: injected crash between plan and commit")
	}
	applied := 0
	rollback := func() {
		for _, mv := range plan.moves[:applied] {
			np.AS.UnmovePages(p.AS, mv.start, mv.pages)
		}
	}
	for _, mv := range plan.moves {
		if m.failAt(faultinject.SitePreserveMove) {
			rollback()
			return fmt.Errorf("kernel: preserve_exec: injected page-move failure at %#x",
				uint64(mv.start))
		}
		if _, err := p.AS.MovePages(np.AS, mv.start, mv.pages); err != nil {
			rollback()
			return fmt.Errorf("kernel: preserve_exec: page move: %w", err)
		}
		applied++
	}
	// Copies run after every move so a partial page that shares a frame with
	// a moved run rewrites it with the identical bytes staged from the
	// intact source.
	for _, cp := range plan.copies {
		if m.failAt(faultinject.SitePreserveCopy) {
			rollback()
			return fmt.Errorf("kernel: preserve_exec: injected partial-copy failure at %#x",
				uint64(cp.addr))
		}
		base := mem.PageBase(cp.addr)
		if !np.AS.Mapped(base) {
			if _, err := np.AS.Map(base, 1, cp.kind, cp.name); err != nil {
				rollback()
				return fmt.Errorf("kernel: preserve_exec: partial copy: %w", err)
			}
		}
		np.AS.WriteAt(cp.addr, cp.data)
	}
	// Load the fresh image into the gaps; the dynamic linker skips the
	// kernel-installed preserved ranges.
	if p.Image != nil {
		if m.failAt(faultinject.SitePreserveLoad) {
			rollback()
			return fmt.Errorf("kernel: preserve_exec: injected image-load failure")
		}
		if _, err := p.Image.Load(np.AS); err != nil {
			rollback()
			return fmt.Errorf("kernel: preserve_exec: image load: %w", err)
		}
	}
	// The Byzantine window: both address spaces exist, the transfer is
	// committed, and nothing has re-read the frames yet. An armed corruption
	// fault strikes here, exactly where real bad DRAM or a stray DMA would.
	p.injectCorruption(np, plan)
	return nil
}

// injectCorruption consults the kernel.preserve.corrupt site once per
// preserved frame (moved pages in plan order, then partial copies) and flips
// one bit of the frame an armed BitFlip selects. The flip goes straight to
// the frame bytes — it is invisible to the application's instrumented stores
// and detectable only by the integrity checksums or the cross-check.
func (p *Process) injectCorruption(np *Process, plan *preservePlan) {
	if p.Machine.Inj == nil {
		return
	}
	for _, mv := range plan.moves {
		for i := 0; i < mv.pages; i++ {
			if p.Machine.Inj.Corrupt(faultinject.SitePreserveCorrupt) {
				addr := mv.start + mem.VAddr(i)*mem.PageSize
				// Deterministic victim byte/bit derived from the page number.
				pg := uint64(mem.PageOf(addr))
				np.AS.FlipBit(addr+mem.VAddr(pg*2654435761%mem.PageSize), uint(pg%8))
				return
			}
		}
	}
	for _, cp := range plan.copies {
		if p.Machine.Inj.Corrupt(faultinject.SitePreserveCorrupt) {
			np.AS.FlipBit(cp.addr+mem.VAddr(len(cp.data)/2), uint(len(cp.data)%8))
			return
		}
	}
}

// verifyChecksums re-reads transferred frames from the destination address
// space and compares them against the checksums staged while the source was
// whole, returning the first mismatch and the number of pages it hashed. The
// walk is incremental: a page whose sum was reused from the prior
// verified commit's cache is skipped when its destination frame is still
// clean — it was verified then, the frame moved by pointer, and any
// corruption since (including FlipBit, which goes through the MMU) would have
// set its soft-dirty bit. Freshly-hashed pages, partial copies, and cached
// pages that arrive dirty are always compared.
//
// The re-hash fans out over the preserve worker pool; the staged per-page
// results are then folded serially in page order, so the hashed count and
// the first reported mismatch are identical to the serial walk's for every
// pool width (a mismatch stops the fold exactly where the serial loop would
// have returned).
func verifyChecksums(dst *mem.AddressSpace, plan *preservePlan, workers int) (*IntegrityError, int) {
	hashed := 0
	for _, mv := range plan.moves {
		type pageCheck struct {
			skip   bool
			hashed bool
			got    uint64
		}
		checks := make([]pageCheck, mv.pages)
		parallelRanges(mv.pages, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pg := mem.PageOf(mv.start) + mem.PageNum(i)
				if mv.cached[i] && !dst.PageDirty(pg) {
					checks[i].skip = true
					continue
				}
				checks[i].hashed = dst.PageResident(pg)
				checks[i].got = dst.PageChecksum(pg)
			}
		})
		for i, c := range checks {
			if c.skip {
				continue
			}
			if c.hashed {
				hashed++
			}
			if c.got != mv.sums[i] {
				addr := mv.start + mem.VAddr(i)*mem.PageSize
				return &IntegrityError{Addr: addr, Want: mv.sums[i], Got: c.got}, hashed
			}
		}
	}
	for _, cp := range plan.copies {
		hashed++
		if got := mem.Checksum(dst.ReadBytes(cp.addr, len(cp.data))); got != cp.sum {
			return &IntegrityError{Addr: cp.addr, Want: cp.sum, Got: got}, hashed
		}
	}
	return nil, hashed
}

// verifyFull is the non-incremental walk: every transferred frame is re-read
// and compared, cache or not. It is the audit oracle AuditIncremental runs
// beside verifyChecksums to prove the incremental walk never validates less;
// it mutates no counters and charges no simulated time.
func verifyFull(dst *mem.AddressSpace, plan *preservePlan) *IntegrityError {
	for _, mv := range plan.moves {
		for i := 0; i < mv.pages; i++ {
			addr := mv.start + mem.VAddr(i)*mem.PageSize
			if got := dst.PageChecksum(mem.PageOf(addr)); got != mv.sums[i] {
				return &IntegrityError{Addr: addr, Want: mv.sums[i], Got: got}
			}
		}
	}
	for _, cp := range plan.copies {
		if got := mem.Checksum(dst.ReadBytes(cp.addr, len(cp.data))); got != cp.sum {
			return &IntegrityError{Addr: cp.addr, Want: cp.sum, Got: got}
		}
	}
	return nil
}

// BeginRewindDomain opens a per-request rewind domain on the process's
// address space, charging the O(1) arming cost. Pre-images are captured
// lazily at first touch, so entry pays no per-page term.
func (p *Process) BeginRewindDomain() error {
	if err := p.AS.BeginRewindDomain(); err != nil {
		return err
	}
	p.Machine.Clock.Advance(p.Machine.Model.DomainBegin)
	return nil
}

// CommitRewindDomain closes the open rewind domain keeping its writes,
// charging the deferred CoW capture per touched page. It returns the touched
// page count.
func (p *Process) CommitRewindDomain() (int, error) {
	n, err := p.AS.CommitDomain()
	if err != nil {
		return 0, err
	}
	p.Machine.Clock.Advance(p.Machine.Model.RewindCommit(n))
	return n, nil
}

// DiscardRewindDomain closes the open rewind domain rolling every touched
// page back byte-exactly, charging the CoW capture plus pre-image write-back
// per touched page. It returns the restored page count.
func (p *Process) DiscardRewindDomain() (int, error) {
	n, err := p.AS.DiscardDomain()
	if err != nil {
		return 0, err
	}
	p.Machine.Clock.Advance(p.Machine.Model.RewindDiscard(n))
	p.Machine.Counters.DomainDiscards.Add(1)
	return n, nil
}

// Exec replaces the process with a fresh image and no preserved state — a
// plain restart. reason annotates why (e.g. a PHOENIX fallback).
func (p *Process) Exec(reason string) (*Process, error) {
	if p.dead {
		return nil, fmt.Errorf("kernel: exec on dead process %d", p.PID)
	}
	np, err := p.Machine.Spawn(p.Image)
	if err != nil {
		return nil, err
	}
	np.preserved = &Handoff{FallbackReason: reason}
	p.dead = true
	return np, nil
}

// Handoff returns the preserve_exec handoff if this process was created by
// one, or nil for a first start / plain restart without annotation.
func (p *Process) Handoff() *Handoff { return p.preserved }

// Dead reports whether the process has been replaced or killed.
func (p *Process) Dead() bool { return p.dead }

// Kill marks the process dead without running handlers.
func (p *Process) Kill() { p.dead = true }

// OnSignal registers a handler for sig (phx_init registers the restart
// handler for SIGSEGV this way).
func (p *Process) OnSignal(sig Signal, fn func(*CrashInfo)) {
	p.handlers[sig] = fn
}

// Deliver invokes the registered handler for the signal, if any, and reports
// whether one ran. SIGKILL never runs handlers.
func (p *Process) Deliver(info *CrashInfo) bool {
	if info.Sig == SIGKILL {
		p.dead = true
		return false
	}
	if fn := p.handlers[info.Sig]; fn != nil {
		fn(info)
		return true
	}
	return false
}

// Run executes f, converting panics that carry *mem.Fault or *Crash into a
// CrashInfo (other panics propagate — they are bugs in the simulator, not
// simulated failures). It returns nil if f completes.
func (p *Process) Run(f func()) (ci *CrashInfo) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch v := r.(type) {
		case *mem.Fault:
			ci = &CrashInfo{Sig: SIGSEGV, Reason: v.Error(), Addr: v.Addr, Time: p.Machine.Clock.Now()}
		case *Crash:
			ci = &CrashInfo{Sig: v.Sig, Reason: v.Reason, Time: p.Machine.Clock.Now(), Component: v.Component}
		default:
			panic(r)
		}
	}()
	f()
	return nil
}
