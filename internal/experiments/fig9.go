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
// Sizes above 1 GiB preserve sparse heap pages (allocated but untouched
// frames) so the host doesn't need tens of GB of RAM. preserve_exec moves
// the same number of page-table entries either way, but the PTE count is not
// what the latency depends on: a first preserve hashes every resident page
// twice (integrity stage and verify), and that hashing dominates. Sparse
// pages are not resident, so the 4 GiB point reads below the touched 1 GiB
// point. The inversion stays until verification leaves the restart window.
// Quick stops at 128 MiB.
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

	fmt.Fprintf(o.Out, "%-12s %-14s %-12s\n", "preserved", "phoenix", "baseline")
	for _, size := range sizes {
		var total, baseTotal time.Duration
		for r := 0; r < runs; r++ {
			d, b, err := measureRestart(o.Seed+int64(r), size, size <= touchLimit)
			if err != nil {
				return err
			}
			total += d
			baseTotal += b
		}
		fmt.Fprintf(o.Out, "%-12s %-14v %-12v\n",
			fmtBytes(size), total/time.Duration(runs), baseTotal/time.Duration(runs))
	}
	return nil
}

// measureRestart builds a process holding `size` bytes of heap, performs one
// PHOENIX restart preserving the heap, and returns the simulated restart
// latency plus a plain-restart baseline.
func measureRestart(seed, size int64, touch bool) (phoenixTime, baseline time.Duration, err error) {
	m := kernel.NewMachine(seed)
	b := linker.NewBuilder("microbench", 0x0010_0000)
	b.Var("mb.config", 8, linker.SecData)
	img := b.Build()

	p, err := m.Spawn(img)
	if err != nil {
		return 0, 0, err
	}
	rt := core.Init(p, nil)
	h, err := rt.OpenHeap(heap.Options{Name: "mb", BrkMax: 1 << 20, ArenaSize: 64 << 20})
	if err != nil {
		return 0, 0, err
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
			return 0, 0, fmt.Errorf("fig9: allocation failed at %d bytes", allocated)
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

	start := m.Clock.Now()
	np, err := rt.Restart(core.RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		return 0, 0, err
	}
	rt2 := core.Init(np, nil)
	if _, err := rt2.OpenHeap(heap.Options{Name: "mb", BrkMax: 1 << 20, ArenaSize: 64 << 20}); err != nil {
		return 0, 0, err
	}
	phoenixTime = m.Clock.Now() - start
	if !rt2.IsRecoveryMode() {
		return 0, 0, fmt.Errorf("fig9: successor not in recovery mode")
	}
	if touch && np.AS.ReadU64(np.AS.ReadPtr(info)) != 0xA5A5A5A5A5A5A5A5 {
		return 0, 0, fmt.Errorf("fig9: preserved content lost")
	}

	// Plain-restart baseline ("process restart in a bash loop").
	start = m.Clock.Now()
	if _, err := np.Exec("baseline"); err != nil {
		return 0, 0, err
	}
	baseline = m.Clock.Now() - start
	return phoenixTime, baseline, nil
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
