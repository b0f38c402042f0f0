// Package perftraj collects the preserve-path performance trajectory: a
// small set of simulated-clock metrics for the operations the
// incremental-preservation work optimises (preserve_exec commit latency at
// several dirty fractions, restart-to-first-request, live-migration delta
// rounds and cutover windows, and the cost-model scan/fork terms). Every
// metric is read off the deterministic simulation clock, so the numbers are
// bit-stable across hosts and runs: phoenix-bench's `preserve` entry prints
// them, and its checked-in golden output pins them exactly.
package perftraj

import (
	"fmt"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

// Pages is the preserved-set size every scenario uses — large enough that
// the O(pages) and O(dirty) terms separate cleanly.
const Pages = 10000

// Metric is one named measurement: simulated-clock nanoseconds (Unit
// "sim-ns") for latency metrics, or a raw count (Unit "count") for the
// migrate_rounds/pages_shipped volume metrics.
type Metric struct {
	Name  string
	Value int64
	Unit  string
}

// region is where scenarios map the preserved set.
const region = mem.VAddr(0x2000_0000)

// PreserveCommit measures preserve_exec commit latency over a pages-sized
// preserved range: the first preserve (no cache, every resident page hashed)
// and, once its clean verdict has landed and installed the cache, a second
// preserve after exactly dirty pages were rewritten, which exercises the
// delta-checksum path. Both durations are the simulated restart window.
func PreserveCommit(pages, dirty int) (first, second time.Duration, err error) {
	m := kernel.NewMachine(1)
	p, err := m.Spawn(nil)
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		return 0, 0, err
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	spec := kernel.ExecSpec{Ranges: []linker.Range{{Start: region, Len: pages * mem.PageSize}}}

	t0 := m.Clock.Now()
	np, err := p.PreserveExec(spec)
	if err != nil {
		return 0, 0, fmt.Errorf("first preserve: %w", err)
	}
	first = m.Clock.Now() - t0
	if err := np.Verify().Settle(); err != nil {
		return 0, 0, fmt.Errorf("first preserve's verdict: %w", err)
	}

	// Rewrite dirty pages spread evenly across the set, so the delta walk
	// cannot benefit from range locality.
	if dirty > 0 {
		stride := pages / dirty
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < dirty; i++ {
			np.AS.WriteU64(region+mem.VAddr(i*stride%pages)*mem.PageSize, 0xD1D1)
		}
	}
	t1 := m.Clock.Now()
	if _, err := np.PreserveExec(spec); err != nil {
		return 0, 0, fmt.Errorf("second preserve (%d dirty): %w", dirty, err)
	}
	second = m.Clock.Now() - t1
	return first, second, nil
}

// RewindDomainRoundTrip measures the per-request rewind-domain primitives in
// simulated time: opening a domain on a process with a pages-sized mapped
// state (O(1) — capture is lazy), then discarding it after the request wrote
// touched pages (the rewind rung's whole unavailability window: CoW capture
// plus pre-image write-back, O(touched) and independent of pages).
func RewindDomainRoundTrip(pages, touched int) (begin, discard time.Duration, err error) {
	m := kernel.NewMachine(1)
	p, err := m.Spawn(nil)
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		return 0, 0, err
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}

	t0 := m.Clock.Now()
	if err := p.BeginRewindDomain(); err != nil {
		return 0, 0, err
	}
	begin = m.Clock.Now() - t0

	// Touch pages spread evenly across the set, as PreserveCommit does.
	stride := pages / touched
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < touched; i++ {
		p.AS.WriteU64(region+mem.VAddr(i*stride%pages)*mem.PageSize, 0xBEEF)
	}
	t1 := m.Clock.Now()
	n, err := p.DiscardRewindDomain()
	if err != nil {
		return 0, 0, err
	}
	if n != touched {
		return 0, 0, fmt.Errorf("perftraj: discard rolled back %d pages, want %d", n, touched)
	}
	discard = m.Clock.Now() - t1
	if v := p.AS.ReadU64(region); v != 1 {
		return 0, 0, fmt.Errorf("perftraj: page 0 reads %#x after discard", v)
	}
	return begin, discard, nil
}

// MigrationCosts accounts one live-migration round trip at a fixed dirty
// fraction. Durations are simulated clock; Rounds and ShippedPages are
// counts, so a convergence regression shows up as a page-volume jump just as
// a cost-model regression shows up as a latency jump.
type MigrationCosts struct {
	// FirstRound is the initial full-copy delta round: every page hashed
	// and shipped while the source keeps serving.
	FirstRound time.Duration
	// DeltaRound is a steady-state round after dirty pages were rewritten:
	// O(pages) stamp scan plus O(dirty) hash and ship.
	DeltaRound time.Duration
	// Cutover is the freeze window: the final delta round over dirty pages
	// plus successor construction on the destination (source + destination
	// clock time — the shard traffic is frozen across both).
	Cutover time.Duration
	// Rounds is the number of copy rounds including the cutover's final one.
	Rounds int
	// ShippedPages is the total transfer volume across all rounds.
	ShippedPages int
}

// MigrationRoundTrip measures the preserve-riding live migration (the shard
// rebalancing mechanism) over a pages-sized preserved set: a first full-copy
// round, one steady-state delta round after dirty pages were rewritten, and
// the cutover with a final delta of the same dirty size. The cutover window
// must scale with dirty, not pages — that contrast is what the trajectory
// pins by collecting it at 1% and 100% dirty.
func MigrationRoundTrip(pages, dirty int) (MigrationCosts, error) {
	var mc MigrationCosts
	m := kernel.NewMachine(1)
	src, err := m.Spawn(nil)
	if err != nil {
		return mc, err
	}
	if _, err := src.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		return mc, err
	}
	for i := 0; i < pages; i++ {
		src.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	dst := kernel.NewMachine(2)
	mg, err := kernel.StartMigration(src, dst, func() (kernel.ExecSpec, error) {
		return kernel.ExecSpec{
			InfoAddr: region + 64,
			Ranges:   []linker.Range{{Start: region, Len: pages * mem.PageSize}},
		}, nil
	})
	if err != nil {
		return mc, err
	}

	t0 := m.Clock.Now()
	if _, err := mg.DeltaRound(); err != nil {
		return mc, fmt.Errorf("first round: %w", err)
	}
	mc.FirstRound = m.Clock.Now() - t0

	// Rewrite dirty pages spread evenly, as PreserveCommit does, then run
	// one steady-state round. Each wave writes fresh values — same-content
	// rewrites would dedup at the checksum and never ship.
	redirty := func(val uint64) {
		stride := pages / dirty
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < dirty; i++ {
			src.AS.WriteU64(region+mem.VAddr(i*stride%pages)*mem.PageSize, val)
		}
	}
	redirty(0xD1D1)
	t1 := m.Clock.Now()
	st, err := mg.DeltaRound()
	if err != nil {
		return mc, fmt.Errorf("delta round: %w", err)
	}
	mc.DeltaRound = m.Clock.Now() - t1
	if st.Shipped != dirty {
		return mc, fmt.Errorf("perftraj: delta round shipped %d pages, want %d", st.Shipped, dirty)
	}

	// Final delta of the same size, then cutover. The freeze window is the
	// serial source + destination time.
	redirty(0xD1D2)
	t2, d2 := m.Clock.Now(), dst.Clock.Now()
	np, _, err := mg.Cutover()
	if err != nil {
		return mc, fmt.Errorf("cutover: %w", err)
	}
	mc.Cutover = (m.Clock.Now() - t2) + (dst.Clock.Now() - d2)
	mc.Rounds = mg.Rounds()
	mc.ShippedPages = mg.ShippedPages()
	if v := np.AS.ReadU64(region + mem.PageSize); v != 2 && dirty < pages {
		return mc, fmt.Errorf("perftraj: page 1 reads %#x on the destination", v)
	}
	return mc, nil
}

// SnapshotServeBatch measures one concurrent-serving cycle off the MVCC
// snapshot store in simulated time: committing a dirty-delta version of a
// pages-sized preserved set, then serving a read batch off the frozen view at
// one reader fan-out. The commit term is O(dirty) write-protects; the dirty
// writes pay their page copies as snapshot faults before the measured
// window, as a harness request does. The batch term amortises across
// readers at the price of the reader spawns — collecting the same batch at
// 1, 4, and 16 readers pins that curve.
func SnapshotServeBatch(pages, dirty, reads, readers int) (time.Duration, error) {
	m := kernel.NewMachine(1)
	p, err := m.Spawn(nil)
	if err != nil {
		return 0, err
	}
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		return 0, err
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	store := mem.NewSnapshotStore(p.AS)
	store.Commit() // baseline full version, outside the measured window

	// Rewrite dirty pages spread evenly, as PreserveCommit does.
	stride := pages / dirty
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < dirty; i++ {
		p.AS.WriteU64(region+mem.VAddr(i*stride%pages)*mem.PageSize, 0xD1D1)
	}
	if f := p.AS.SnapshotFaults(); f != dirty {
		return 0, fmt.Errorf("perftraj: %d dirty writes took %d snapshot faults", dirty, f)
	}
	m.Clock.Advance(m.Model.SnapshotFaults(dirty))

	t0 := m.Clock.Now()
	v := store.Commit()
	m.Clock.Advance(m.Model.SnapshotCommit(v.Changed()))
	m.Clock.Advance(m.Model.ConcurrentReadBatch(reads, readers))
	dur := m.Clock.Now() - t0
	if v.Changed() != dirty {
		return 0, fmt.Errorf("perftraj: serve commit copied %d pages, want %d", v.Changed(), dirty)
	}
	if err := v.CheckFrozen(); err != nil {
		return 0, err
	}
	if got := v.View().ReadU64(region); got != 0xD1D1 {
		return 0, fmt.Errorf("perftraj: frozen view reads %#x, want dirtied value", got)
	}
	return dur, nil
}

// RestartToFirstRequest measures the full optimistic-recovery critical path
// in simulated time: PHOENIX restart of a process holding a pages-sized heap
// state, re-initialisation in the successor, and the first read of preserved
// state — the moment the application can serve again.
func RestartToFirstRequest(pages int) (time.Duration, error) {
	m := kernel.NewMachine(1)
	bld := linker.NewBuilder("perftraj", 0x0010_0000)
	bld.Var("cfg", 8, linker.SecData)
	p, err := m.Spawn(bld.Build())
	if err != nil {
		return 0, err
	}
	rt := core.Init(p, nil)
	h, err := rt.OpenHeap(heap.Options{})
	if err != nil {
		return 0, err
	}
	state := h.Alloc(pages * mem.PageSize)
	if state == mem.NullPtr {
		return 0, fmt.Errorf("perftraj: %d-page alloc failed", pages)
	}
	for i := 0; i < pages; i++ {
		p.AS.WriteU64(state+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	info := h.Alloc(16)
	p.AS.WritePtr(info, state)

	t0 := m.Clock.Now()
	np, err := rt.Restart(core.RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		return 0, err
	}
	rt2 := core.Init(np, nil)
	if _, err := rt2.OpenHeap(heap.Options{}); err != nil {
		return 0, err
	}
	got := np.AS.ReadPtr(rt2.RecoveryInfo())
	if v := np.AS.ReadU64(got); v != 1 {
		return 0, fmt.Errorf("perftraj: preserved state reads %#x after restart", v)
	}
	return m.Clock.Now() - t0, nil
}

// Collect runs every scenario and returns its metrics in a fixed order.
func Collect() ([]Metric, error) {
	var out []Metric
	add := func(name string, d time.Duration) {
		out = append(out, Metric{Name: name, Value: int64(d), Unit: "sim-ns"})
	}

	full, d1, err := PreserveCommit(Pages, Pages/100) // 1% dirty
	if err != nil {
		return nil, err
	}
	_, d10, err := PreserveCommit(Pages, Pages/10) // 10% dirty
	if err != nil {
		return nil, err
	}
	_, d100, err := PreserveCommit(Pages, Pages) // 100% dirty
	if err != nil {
		return nil, err
	}
	add("preserve_commit_full", full)
	add("preserve_commit_dirty_1pct", d1)
	add("preserve_commit_dirty_10pct", d10)
	add("preserve_commit_dirty_100pct", d100)

	restart, err := RestartToFirstRequest(Pages)
	if err != nil {
		return nil, err
	}
	add("restart_to_first_request", restart)

	begin, disc1, err := RewindDomainRoundTrip(Pages, Pages/100) // 1% touched
	if err != nil {
		return nil, err
	}
	_, disc10, err := RewindDomainRoundTrip(Pages, Pages/10) // 10% touched
	if err != nil {
		return nil, err
	}
	add("rewind_domain_begin", begin)
	add("rewind_discard_touched_1pct", disc1)
	add("rewind_discard_touched_10pct", disc10)

	// Live-migration trajectory: steady-state delta rounds and the cutover
	// freeze window at 1% and 100% final delta. The count metrics (rounds,
	// pages shipped) catch a convergence regression, which inflates transfer
	// volume even when per-page costs hold.
	mc1, err := MigrationRoundTrip(Pages, Pages/100) // 1% write rate
	if err != nil {
		return nil, err
	}
	mc100, err := MigrationRoundTrip(Pages, Pages) // degenerate stop-and-copy
	if err != nil {
		return nil, err
	}
	add("migrate_first_round", mc1.FirstRound)
	add("migrate_delta_round_1pct", mc1.DeltaRound)
	add("migrate_cutover_dirty_1pct", mc1.Cutover)
	add("migrate_cutover_dirty_100pct", mc100.Cutover)
	out = append(out,
		Metric{Name: "migrate_rounds_1pct", Value: int64(mc1.Rounds), Unit: "count"},
		Metric{Name: "migrate_pages_shipped_1pct", Value: int64(mc1.ShippedPages), Unit: "count"})

	// Cost-model terms the incremental path leans on, pinned so a model
	// change shows up in the trajectory diff rather than only downstream.
	model := kernel.NewMachine(1).Model
	add("dirty_scan", time.Duration(Pages)*model.DirtyScanPerPage)
	add("checksum_hash", time.Duration(Pages)*model.ChecksumPerPage)
	add("fork_cow_clean", model.ForkCoW(Pages, 0))

	// Concurrent-serving trajectory: a 128-read batch served off a committed
	// 1%-dirty MVCC version at each rung of the reader ladder — the curve the
	// concurrency campaign's ≥2x-at-4-readers contract rides on.
	for _, readers := range []int{1, 4, 16} {
		d, err := SnapshotServeBatch(Pages, Pages/100, 128, readers)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("serve_batch_128_x%d", readers), d)
	}
	// Preserve staging at the trajectory's full footprint: every page moved,
	// hashed and scanned.
	add("preserve_stage_serial", model.PreserveExecDelta(Pages, 0, Pages, Pages))
	return out, nil
}
