package experiments

import (
	"fmt"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

// RunFig9 reproduces the §4.1 microbenchmark: PHOENIX restart time as a
// function of preserved memory size, measured from invoking phx_restart to
// returning from phx_init in the restarted process, averaged over several
// runs per size, against the plain-restart baseline.
//
// The paper's shape: ~1.20 ms flat below 4 MB (fixed cost dominates), then
// linear in preserved pages (~220 ms at 32 GB); plain restart 1.02 ms.
//
// Two series. The paper series runs the paper's design, checksums off:
// preserve_exec charges only the exec, the fixed PHOENIX cost and the PTE
// moves. The integrity series keeps this repository's checksums on: its
// restart window adds a dirty-bit scan and the stage hash of every resident
// page with no cached sum (every resident page on a first preserve), printed
// as the stage-hash term; the verify walk re-hashes them in the background,
// off the window (bg-verify, the time until its verdict lands).
//
// Sizes above 1 GiB preserve sparse heap pages (allocated but untouched
// frames) so the host doesn't need tens of GB of RAM. Sparse pages are not
// resident and hash as the zero page in O(1), so the integrity series' 4 GiB
// point reads below its touched 1 GiB point; the paper series, whose cost
// is PTE moves alone, rises with the page count. Quick stops at 128 MiB.
func RunFig9(o Options) error {
	o.fill()
	sizes := []int64{
		64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 32 << 20,
		128 << 20, 512 << 20, 1 << 30, 4 << 30, 32 << 30,
	}
	touchLimit := int64(1 << 30)
	runs := 5
	if o.Quick {
		sizes = sizes[:7]
		runs = 2
	}

	fmt.Fprintf(o.Out, "%-12s %-14s %-14s %-14s %-14s %-12s\n",
		"preserved", "paper", "integrity", "stage-hash", "bg-verify", "baseline")
	for _, size := range sizes {
		var total restartTimes
		for r := 0; r < runs; r++ {
			t, err := measureRestart(o.Seed+int64(r), size, size <= touchLimit)
			if err != nil {
				return err
			}
			total.paper += t.paper
			total.integrity += t.integrity
			total.stageHash += t.stageHash
			total.bgVerify += t.bgVerify
			total.baseline += t.baseline
		}
		n := time.Duration(runs)
		fmt.Fprintf(o.Out, "%-12s %-14v %-14v %-14v %-14v %-12v\n", fmtBytes(size),
			total.paper/n, total.integrity/n, total.stageHash/n, total.bgVerify/n, total.baseline/n)
	}
	return nil
}

// restartTimes is one fig9 measurement: a restart with checksums off (the
// paper's design), one with them on with its stage-hash term and the
// background verify walk's time, and a plain restart.
type restartTimes struct {
	paper, integrity, stageHash, bgVerify, baseline time.Duration
}

// measureRestart builds a process holding `size` bytes of heap, restarts it
// preserving the heap twice — checksums off, then on (no cache either way,
// since an unverified commit leaves none) — and then plainly.
func measureRestart(seed, size int64, touch bool) (restartTimes, error) {
	var t restartTimes
	m := kernel.NewMachine(seed)
	b := linker.NewBuilder("microbench", 0x0010_0000)
	b.Var("mb.config", 8, linker.SecData)
	img := b.Build()

	p, err := m.Spawn(img)
	if err != nil {
		return t, err
	}
	rt := core.Init(p, nil)
	opts := heap.Options{Name: "mb", BrkMax: 1 << 20, ArenaSize: 64 << 20}
	h, err := rt.OpenHeap(opts)
	if err != nil {
		return t, err
	}
	// Allocate the target size in large chunks; fill the first bytes of
	// each page with non-zero data when touching is affordable.
	const chunk = 32 << 20
	var allocated int64
	var first mem.VAddr
	for allocated < size {
		n := size - allocated
		if n > chunk {
			n = chunk
		}
		ptr := h.Alloc(int(n))
		if ptr == mem.NullPtr {
			return t, fmt.Errorf("fig9: allocation failed at %d bytes", allocated)
		}
		if first == mem.NullPtr {
			first = ptr
		}
		if touch {
			for off := int64(0); off < n; off += mem.PageSize {
				p.AS.WriteU64(ptr+mem.VAddr(off), 0xA5A5A5A5A5A5A5A5)
			}
		}
		allocated += n
	}
	info := h.Alloc(16)
	p.AS.WritePtr(info, first)

	restart := func(rt *core.Runtime, checksumsOff bool) (*core.Runtime, time.Duration, error) {
		start := m.Clock.Now()
		np, err := rt.Restart(core.RestartPlan{InfoAddr: info, WithHeap: true, SkipIntegrityVerify: checksumsOff})
		if err != nil {
			return nil, 0, err
		}
		next := core.Init(np, nil)
		if _, err := next.OpenHeap(opts); err != nil {
			return nil, 0, err
		}
		if !next.IsRecoveryMode() {
			return nil, 0, fmt.Errorf("fig9: successor not in recovery mode")
		}
		if touch && np.AS.ReadU64(np.AS.ReadPtr(info)) != 0xA5A5A5A5A5A5A5A5 {
			return nil, 0, fmt.Errorf("fig9: preserved content lost")
		}
		return next, m.Clock.Now() - start, nil
	}
	rt2, d, err := restart(rt, true)
	if err != nil {
		return t, err
	}
	t.paper = d
	rt3, d, err := restart(rt2, false)
	if err != nil {
		return t, err
	}
	t.integrity = d
	np := rt3.Proc()
	ho := np.Handoff()
	t.stageHash = time.Duration(ho.ResidentPages-ho.ReusedChecksums+ho.CopiedPages) * m.Model.ChecksumPerPage
	t.bgVerify = time.Duration(np.Verify().Hashed) * m.Model.ChecksumPerPage

	// Plain-restart baseline ("process restart in a bash loop").
	start := m.Clock.Now()
	if _, err := np.Exec("baseline"); err != nil {
		return t, err
	}
	t.baseline = m.Clock.Now() - start
	return t, nil
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	default:
		return fmt.Sprintf("%dKiB", n>>10)
	}
}
