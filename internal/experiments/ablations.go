package experiments

import (
	"fmt"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/heap"
	"phoenix/internal/ir"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"

	"phoenix/internal/apps/kvstore"
)

// Ablations are not paper artifacts: they isolate the design choices
// DESIGN.md calls out and measure what each buys.
//
//	abl-zerocopy  — zero-copy PTE moves vs physically copying pages
//	abl-cleanup   — mark-and-sweep cleanup on vs off across a restart
//	abl-regions   — tight analyzer-derived unsafe regions vs conservative
//	                whole-function regions (availability cost of imprecision)

// RunAblZeroCopy compares the preserve_exec transfer mechanisms: moving
// page-table entries (the paper's design) against physically copying every
// preserved page (the fallback the kernel uses for partial pages, and what
// a user-space implementation like the Facebook Scuba shared-memory restart
// would pay, §5). Both sides pay the same integrity hashing and dirty-bit
// scan, printed as the hashing column, so the ratio compares transfers only.
func RunAblZeroCopy(o Options) error {
	o.fill()
	sizes := []int64{4 << 20, 64 << 20, 512 << 20}
	if o.Quick {
		sizes = sizes[:2]
	}
	fmt.Fprintf(o.Out, "%-12s %-14s %-14s %-14s %-8s\n", "preserved", "zero-copy", "page-copy", "hashing", "ratio")
	for _, size := range sizes {
		zeroCopy, pageCopy, hashing, err := ablTransfer(o.Seed, size)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-12s %-14v %-14v %-14v %6.1fx\n",
			fmtBytes(size), zeroCopy, pageCopy, hashing, float64(pageCopy)/float64(zeroCopy))
	}
	return nil
}

// ablTransfer builds a process with `size` bytes of touched heap, restarts it
// once through preserve_exec, and returns that zero-copy restart's time, the
// time of a restart that copies the same pages instead, and the integrity
// hashing both include.
func ablTransfer(seed, size int64) (zeroCopy, pageCopy, hashing time.Duration, err error) {
	m := kernel.NewMachine(seed)
	b := linker.NewBuilder("abl", 0x0010_0000)
	b.Var("cfg", 8, linker.SecData)
	p, err := m.Spawn(b.Build())
	if err != nil {
		return 0, 0, 0, err
	}
	rt := core.Init(p, nil)
	h, err := rt.OpenHeap(heap.Options{ArenaSize: 64 << 20, BrkMax: 1 << 20})
	if err != nil {
		return 0, 0, 0, err
	}
	const chunk = 32 << 20
	for allocated := int64(0); allocated < size; {
		n := size - allocated
		if n > chunk {
			n = chunk
		}
		ptr := h.Alloc(int(n))
		if ptr == mem.NullPtr {
			return 0, 0, 0, fmt.Errorf("abl-zerocopy: allocation failed")
		}
		// Touch one word per page so frames exist (integrity hashing covers
		// resident pages only).
		for off := int64(0); off < n; off += mem.PageSize {
			p.AS.WriteU64(ptr+mem.VAddr(off), 1)
		}
		allocated += n
	}
	info := h.Alloc(16)

	start := m.Clock.Now()
	np, err := rt.Restart(core.RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		return 0, 0, 0, err
	}
	zeroCopy = m.Clock.Now() - start
	// preserve_exec charges PreserveExecDelta(moved, copied, hashed, moved)
	// and nothing else, so the restart minus its hash-free terms is the
	// hashing. The copy-based restart hashes and scans the same pages, and
	// copies every moved page instead of moving it.
	ho := np.Handoff()
	hashing = zeroCopy - m.Model.PreserveExecDelta(ho.MovedPages, ho.CopiedPages, 0, ho.MovedPages)
	if hashing < 0 || hashing%m.Model.ChecksumPerPage != 0 {
		return 0, 0, 0, fmt.Errorf("abl-zerocopy: restart took %v, not a preserve_exec charge", zeroCopy)
	}
	hashed := int(hashing / m.Model.ChecksumPerPage)
	pageCopy = m.Model.PreserveExecDelta(0, ho.MovedPages+ho.CopiedPages, hashed, ho.MovedPages)
	return zeroCopy, pageCopy, hashing, nil
}

// RunAblCleanup measures what the §3.4 mark-and-sweep cleanup costs a
// recovery and what it reclaims, by crashing the kvstore after a churn-heavy
// workload and recovering with and without cleanup. Each run serves through
// its first answer after the PHOENIX restart, so downtime is crash to first
// answer; the cleanup row's difference is the fork column, the only charge
// the cleanup puts on the restart window. frees-at is when the collected
// garbage was freed, counted from the crash, and swept is what that freed.
func RunAblCleanup(o Options) error {
	o.fill()
	fmt.Fprintf(o.Out, "%-10s %-12s %-12s %-12s %-14s %-14s\n", "cleanup", "downtime", "fork", "frees-at", "live-bytes", "swept")
	for _, cleanup := range []bool{false, true} {
		r, err := ablCleanup(o, cleanup)
		if err != nil {
			return err
		}
		fork, freesAt := "0s", "-"
		if cleanup {
			fork, freesAt = us(r.fork), us(r.freesAt)
		}
		fmt.Fprintf(o.Out, "%-10v %-12s %-12s %-12s %-14s %-14s\n",
			cleanup, us(r.downtime), fork, freesAt, fmtBytes(r.liveBytes), fmtBytes(r.swept))
	}
	fmt.Fprintln(o.Out, "cleanup costs the restart window one copy-on-write fork; marking and sweeping")
	fmt.Fprintln(o.Out, "run on the fork, and the garbage is freed at a later request boundary (§3.4)")
	return nil
}

// cleanupRun is one abl-cleanup recovery at full precision: the downtime,
// the cleanup's fork charge and when its frees landed (from the crash), and
// the live and swept chunk bytes afterwards. A run without cleanup has no
// fork, frees and sweep.
type cleanupRun struct {
	downtime, fork, freesAt time.Duration
	liveBytes, swept        int64
}

// ablCleanup runs one abl-cleanup recovery: it warms the kvstore, leaves
// 20,000 unreachable allocations behind, crashes it and serves through the
// first answer after the PHOENIX restart.
func ablCleanup(o Options, cleanup bool) (cleanupRun, error) {
	warm := 10 * time.Second
	if o.Quick {
		warm = 3 * time.Second
	}
	m := kernel.NewMachine(o.Seed)
	sh, err := ablKVWithCleanup(m, cleanup, o)
	if err != nil {
		return cleanupRun{}, err
	}
	if err := sh.h.RunUntil(m.Clock.Now() + warm); err != nil {
		return cleanupRun{}, err
	}
	// Manufacture garbage: allocations unreachable from the roots.
	hp := sh.h.Runtime().MainHeap()
	for i := 0; i < 20000; i++ {
		hp.Alloc(256)
	}
	sh.arm("R3")
	for i := 0; i < 1000; i++ {
		if _, resumed := sh.h.TL.ResumedAt(); resumed {
			break
		}
		if err := sh.h.Step(); err != nil {
			return cleanupRun{}, err
		}
	}
	if _, resumed := sh.h.TL.ResumedAt(); !resumed || sh.h.Stat.PhoenixRestarts != 1 {
		return cleanupRun{}, fmt.Errorf("abl-cleanup: want one PHOENIX recovery and an answer after it, got %+v", sh.h.Stat)
	}
	r := cleanupRun{downtime: sh.h.TL.Downtime()}
	c := sh.h.Runtime().AwaitCleanup()
	if (c != nil) != cleanup {
		return cleanupRun{}, fmt.Errorf("abl-cleanup: cleanup %v, but a cleanup ran: %v", cleanup, c != nil)
	}
	if c != nil {
		crashAt, _ := sh.h.TL.FailureAt()
		r.fork, r.freesAt, r.swept = c.Fork, c.ReclaimedAt-crashAt, c.FreedBytes
	}
	r.liveBytes = sh.h.Runtime().MainHeap().Stats().LiveBytes
	return r, nil
}

// us formats d at microsecond precision.
func us(d time.Duration) string { return d.Round(time.Microsecond).String() }

func ablKVWithCleanup(m *kernel.Machine, cleanup bool, o Options) (*sysHarness, error) {
	records := uint64(20000)
	if o.Quick {
		records = 4000
	}
	cfg := recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true, WatchdogTimeout: 2 * time.Second}
	kv := kvstore.New(kvstore.Config{Cleanup: cleanup}, nil)
	gen := workload.NewYCSB(workload.YCSBConfig{
		Seed: o.Seed, Records: records, ReadFrac: 0.9, InsertFrac: 0.1,
		ValueSize: 128, ZipfianKeys: true,
	})
	h := recovery.NewHarness(m, cfg, kv, gen, nil)
	if err := h.Boot(); err != nil {
		return nil, err
	}
	kv.Load(gen.LoadKeys(), 128)
	return &sysHarness{h: h, arm: kv.ArmBug, dmp: func() map[string]string { return kv.Dump() }}, nil
}

// RunAblRegions quantifies instrumentation precision on the IR model: sweep
// every crash point through a mixed transaction stream (updates and
// read-only lookups) and count how often the recovery condition rejects the
// preserved state under (a) the analyzer's placement, which excludes
// read-only code (§3.5: "unsafe regions explicitly exclude read-only
// portions of critical sections"), and (b) naive critical-section-style
// marking that brackets every function touching the preserved data. Both
// are sound; the naive variant needlessly rejects every crash in read
// paths — availability lost to imprecision.
func RunAblRegions(o Options) error {
	o.fill()
	mod, tight, err := instrumentedKVModel()
	if err != nil {
		return err
	}
	conservative := criticalSectionInstrument(mod)

	fmt.Fprintf(o.Out, "%-14s %8s %8s %10s\n", "placement", "crashes", "unsafe", "rejected%")
	for _, v := range []struct {
		name string
		mod  *ir.Module
	}{{"analyzer", tight}, {"crit-section", conservative}} {
		crashes, unsafeCnt, err := sweepCrashes(v.mod)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-14s %8d %8d %9.1f%%\n",
			v.name, crashes, unsafeCnt, 100*float64(unsafeCnt)/float64(crashes))
	}
	fmt.Fprintln(o.Out, "every rejected crash is a fallback to slow default recovery:")
	fmt.Fprintln(o.Out, "precision buys availability without giving up the zero-false-negative guarantee")
	return nil
}

// criticalSectionInstrument models the naive alternative §3.5 argues
// against: every function operating on the shared data — readers included —
// is bracketed whole, as reusing lock-based critical sections would do.
func criticalSectionInstrument(mod *ir.Module) *ir.Module {
	nm := mod.Clone()
	for _, name := range nm.Order {
		f := nm.Funcs[name]
		entry := f.Entry()
		entry.Instrs = append([]ir.Instr{{Op: ir.OpUnsafeEnter}}, entry.Instrs...)
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				if b.Instrs[i].Op == ir.OpRet {
					rest := append([]ir.Instr{{Op: ir.OpUnsafeExit}}, b.Instrs[i:]...)
					b.Instrs = append(b.Instrs[:i], rest...)
					i++
				}
			}
		}
	}
	return nm
}

// sweepCrashes runs a mixed transaction stream — a 90/10 read/update mix,
// like the Redis workload — crashing at every step, and counts unsafe
// verdicts.
func sweepCrashes(mod *ir.Module) (crashes, unsafeCnt int, err error) {
	for crashAt := 1; ; crashAt++ {
		in := ir.NewInterp(mod)
		bucket := in.Global("table") + 256
		in.Store(in.Global("table")+8, bucket)
		for k := int64(1); k <= 2; k++ {
			if _, err := in.Call("handler", k, k*7); err != nil {
				return 0, 0, err
			}
		}
		in.CrashAtStep = in.Steps + crashAt
		// The crash window covers nine read-only transactions and one
		// update, mirroring the workload's time distribution.
		var callErr error
		for r := int64(0); r < 9 && callErr == nil; r++ {
			_, callErr = in.Call("reader", 1+r%2)
		}
		if callErr == nil {
			_, callErr = in.Call("handler", 1, 99)
		}
		if callErr == nil {
			return crashes, unsafeCnt, nil // past the end of the window
		}
		crash, ok := callErr.(*ir.ErrCrash)
		if !ok {
			return 0, 0, callErr
		}
		crashes++
		if !ir.Safe(crash.Stack) {
			unsafeCnt++
		}
		if crashAt > 10000 {
			return 0, 0, fmt.Errorf("abl-regions: sweep did not terminate")
		}
	}
}
