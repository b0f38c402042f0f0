package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/costmodel"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/netsim"
	"phoenix/internal/simclock"
	"phoenix/internal/simds"
)

// ladderRounds is how many times each ladder item is timed; it reports the
// median.
const ladderRounds = 5

// ladder times public layer functions directly at the workload's footprint
// and stores ns/op (median of rounds) and exact allocs/op in res. It is the
// per-layer baseline the span metrics are read against.
func ladder(fp footprint, res *result) error {
	steps := []func(footprint, map[string]float64) error{ladderMem, ladderHeap, ladderDict, ladderPreserve, ladderNet}
	for _, step := range steps {
		if err := step(fp, res.values); err != nil {
			return fmt.Errorf("layer ladder: %w", err)
		}
	}
	return nil
}

// timeRounds runs f ladderRounds times and returns the median wall time per
// op, in ns.
func timeRounds(ops int, f func()) float64 {
	var per []float64
	for i := 0; i < ladderRounds; i++ {
		start := time.Now()
		f()
		per = append(per, float64(time.Since(start))/float64(ops))
	}
	return median(per)
}

const ladderBase = mem.VAddr(0x4000_0000)

// xorshift is the ladder's address stream: cheap and deterministic.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func ladderMem(fp footprint, v map[string]float64) error {
	as := mem.NewAddressSpace()
	if _, err := as.Map(ladderBase, fp.pages, mem.KindCustom, "ladder"); err != nil {
		return err
	}
	for p := 0; p < fp.pages; p++ {
		as.WriteU64(ladderBase+mem.VAddr(p)*mem.PageSize, uint64(p))
	}
	const ops = 1 << 18
	span := uint64(fp.pages) * mem.PageSize / 8
	addr := func(x uint64) mem.VAddr { return ladderBase + mem.VAddr(x%span)*8 }
	var sink uint64
	v["mem.read_u64_ns"] = timeRounds(ops, func() {
		x := uint64(1)
		for i := 0; i < ops; i++ {
			x = xorshift(x)
			sink += as.ReadU64(addr(x))
		}
	})
	v["mem.write_u64_ns"] = timeRounds(ops, func() {
		x := uint64(2)
		for i := 0; i < ops; i++ {
			x = xorshift(x)
			as.WriteU64(addr(x), x)
		}
	})
	first := mem.PageOf(ladderBase)
	v["mem.page_checksum_ns"] = timeRounds(fp.pages, func() {
		for p := 0; p < fp.pages; p++ {
			sink += as.PageChecksum(first + mem.PageNum(p))
		}
	})
	as.ClearDirty(ladderBase, fp.pages)
	dirty1pct := func(salt uint64) {
		for p := 0; p < fp.pages; p += 100 {
			as.WriteU64(ladderBase+mem.VAddr(p)*mem.PageSize, salt)
		}
	}
	dirty1pct(3)
	v["mem.dirty_scan_ns_per_page"] = timeRounds(fp.pages, func() {
		sink += uint64(as.DirtyPagesIn(ladderBase, fp.pages))
	})
	store := mem.NewSnapshotStore(as)
	store.Commit()
	var commits []float64
	for i := 0; i < ladderRounds; i++ {
		dirty1pct(uint64(i + 10))
		start := time.Now()
		store.Commit()
		commits = append(commits, float64(time.Since(start))/1e3)
	}
	v["mem.snapshot_commit_1pct_us"] = median(commits)
	runtime.KeepAlive(sink)
	return nil
}

func newLadderHeap() (*heap.Heap, error) {
	return heap.New(mem.NewAddressSpace(), core.DefaultHeapBase, heap.Options{Name: "ladder"})
}

func ladderHeap(fp footprint, v map[string]float64) error {
	h, err := newLadderHeap()
	if err != nil {
		return err
	}
	const ops = 1 << 16
	v["heap.alloc_free_ns"] = timeRounds(ops, func() {
		for i := 0; i < ops; i++ {
			h.Free(h.Alloc(valueSize))
		}
	})
	// kvstore keeps two chunks per key (dictionary entry and value blob);
	// the sweep visits them all and frees the unmarked half.
	var sweeps []float64
	for i := 0; i < ladderRounds; i++ {
		h, err := newLadderHeap()
		if err != nil {
			return err
		}
		keep := make([]mem.VAddr, fp.keys)
		for j := range keep {
			keep[j] = h.Alloc(64)
			h.Alloc(valueSize)
		}
		start := time.Now()
		for _, p := range keep {
			h.Mark(p)
		}
		h.Sweep()
		sweeps = append(sweeps, float64(time.Since(start))/1e6)
	}
	v["heap.mark_sweep_ms"] = median(sweeps)
	return nil
}

func ladderDict(fp footprint, v map[string]float64) error {
	h, err := newLadderHeap()
	if err != nil {
		return err
	}
	d := simds.NewDict(simds.NewCtx(h, nil, costmodel.Default()), 1024)
	keys := make([][]byte, fp.keys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%010d", i))
	}
	start := time.Now()
	for i, k := range keys {
		d.Set(k, uint64(i))
	}
	v["simds.dict_set_ns"] = float64(time.Since(start)) / float64(len(keys))
	const ops = 1 << 16
	v["simds.dict_get_ns"] = timeRounds(ops, func() {
		x := uint64(5)
		for i := 0; i < ops; i++ {
			x = xorshift(x)
			d.Get(keys[x%uint64(len(keys))])
		}
	})
	v["simds.dict_get_allocs"] = testing.AllocsPerRun(1000, func() { d.Get(keys[len(keys)/2]) })
	return nil
}

// ladderPreserve times kernel preserve_exec over a heap of the footprint's
// page count: a full preserve (every page hashed), then a delta preserve
// after 1% of the pages were written.
func ladderPreserve(fp footprint, v map[string]float64) error {
	b := linker.NewBuilder("ladder", 0x0010_0000)
	b.Var("cfg", 8, linker.SecData)
	img := b.Build()
	var full, delta, allocs []float64
	for i := 0; i < ladderRounds; i++ {
		m := kernel.NewMachine(int64(i + 1))
		proc, err := m.Spawn(img)
		if err != nil {
			return err
		}
		rt := core.Init(proc, nil)
		h, err := rt.OpenHeap(heap.Options{})
		if err != nil {
			return err
		}
		data := h.Alloc(fp.pages * mem.PageSize)
		for p := 0; p < fp.pages; p++ {
			proc.AS.WriteU64(data+mem.VAddr(p)*mem.PageSize, uint64(p))
		}
		info := h.Alloc(16)
		proc.AS.WritePtr(info, data)
		plan := core.RestartPlan{InfoAddr: info, WithHeap: true}

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		np, err := rt.Restart(plan)
		full = append(full, float64(time.Since(start))/1e6)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("full preserve: %w", err)
		}
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))

		rt = core.Init(np, nil)
		if _, err := rt.OpenHeap(heap.Options{}); err != nil {
			return err
		}
		for p := 0; p < fp.pages; p += 100 {
			np.AS.WriteU64(data+mem.VAddr(p)*mem.PageSize, uint64(i))
		}
		start = time.Now()
		_, err = rt.Restart(plan)
		delta = append(delta, float64(time.Since(start))/1e6)
		if err != nil {
			return fmt.Errorf("delta preserve: %w", err)
		}
	}
	v["kernel.preserve_exec_full_ms"] = median(full)
	v["kernel.preserve_exec_delta1pct_ms"] = median(delta)
	v["kernel.preserve_exec_allocs"] = median(allocs)
	return nil
}

func ladderNet(_ footprint, v map[string]float64) error {
	clk := simclock.New()
	n := netsim.New(clk, netsim.LinkConfig{Latency: 100 * time.Microsecond, Jitter: 50 * time.Microsecond}, 1, nil)
	delivered := 0
	n.Register("a", func(netsim.Message) {})
	n.Register("b", func(netsim.Message) { delivered++ })
	const ops, batch = 1 << 16, 256
	v["netsim.send_deliver_ns"] = timeRounds(ops, func() {
		for i := 0; i < ops; i += batch {
			for j := 0; j < batch; j++ {
				n.Send("a", "b", j)
			}
			clk.Advance(time.Millisecond)
		}
	})
	if delivered != ladderRounds*ops {
		return fmt.Errorf("netsim delivered %d of %d messages", delivered, ladderRounds*ops)
	}
	return nil
}
