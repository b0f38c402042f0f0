package kernel

import (
	"fmt"
	"sort"
	"time"

	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

// Migration is a live cross-machine transfer of a process's preserved ranges
// — the mechanism under shard rebalancing. It rides the same page-level
// machinery as preserve_exec instead of serializing application contents:
// the destination receives the preserved pages at their original virtual
// addresses (same ASLR slide) under a Handoff, so the application recovers
// on the destination exactly as it would after a PHOENIX restart.
//
// The transfer runs in delta rounds while the source keeps serving. Each
// round scans the preserved pages' write-generation stamps (mem.PageGen, a
// cheap per-page counter check), re-hashes only stamp-changed pages, and
// ships only pages whose checksum actually changed since their last ship.
// Because writes re-stamp pages, successive rounds converge to the write
// rate: round k ships only what the application wrote during round k-1. The
// cutover then performs one final round — small, because the orchestrator
// has frozen the shard's traffic — builds the destination process, and kills
// the source, so the preserved state never has two live owners. Cutover cost
// therefore scales with the final dirty delta (hash + ship terms), not with
// the shard size (only the 5ns/page stamp scan is O(pages)).
//
// The preserved range set is re-resolved from the application's restart plan
// at every round, so heap growth during the migration (new arenas, grown
// mappings) enters the page set automatically instead of being silently
// dropped at cutover.
type Migration struct {
	src     *Process
	dst     *Machine
	resolve func() (ExecSpec, error)

	// gens records each page's write-generation stamp as of its last hash;
	// an unchanged stamp proves unchanged bytes, skipping the hash entirely.
	gens map[mem.PageNum]uint64
	// sums records each page's checksum as of its last ship; an unchanged
	// sum after a re-hash (same bytes rewritten, or a discarded rewind
	// domain) skips the ship.
	sums map[mem.PageNum]uint64
	// data buffers the shipped page images awaiting install at cutover. A
	// missing entry for a tracked page means it reads as zeros.
	data map[mem.PageNum][]byte

	rounds  int
	shipped int
	done    bool
	aborted bool
}

// RoundStats accounts one migration round (or the cutover's final round).
type RoundStats struct {
	// Scanned is the preserved page count — every round pays a stamp scan
	// over all of it.
	Scanned int
	// Hashed counts pages whose stamp changed and were re-checksummed.
	Hashed int
	// Shipped counts pages whose content changed and were re-buffered for
	// the destination.
	Shipped int
	// Cost is the simulated time charged to the source machine's clock.
	Cost time.Duration
	// InstallCost is the simulated time charged to the destination machine's
	// clock (cutover only: successor construction and image load).
	InstallCost time.Duration
}

// StartMigration begins a live migration of src's preserved ranges to a
// fresh process on dst. resolve returns the current preserve spec (the same
// one a PHOENIX restart would use); it is re-invoked every round so the
// tracked page set follows the application's live heap. No pages move until
// the first DeltaRound.
func StartMigration(src *Process, dst *Machine, resolve func() (ExecSpec, error)) (*Migration, error) {
	if src == nil || src.dead {
		return nil, fmt.Errorf("kernel: migration: source process is dead")
	}
	if dst == nil {
		return nil, fmt.Errorf("kernel: migration: nil destination machine")
	}
	mg := &Migration{
		src:     src,
		dst:     dst,
		resolve: resolve,
		gens:    make(map[mem.PageNum]uint64),
		sums:    make(map[mem.PageNum]uint64),
		data:    make(map[mem.PageNum][]byte),
	}
	// Resolve once up front so a misconfigured spec fails at start, not
	// rounds later.
	if _, _, err := mg.pageSet(); err != nil {
		return nil, err
	}
	return mg, nil
}

// Rounds returns the number of completed delta rounds (the cutover's final
// round included).
func (mg *Migration) Rounds() int { return mg.rounds }

// ShippedPages returns the cumulative number of page ships across all
// rounds — the migration's total transfer volume.
func (mg *Migration) ShippedPages() int { return mg.shipped }

// Done reports whether the migration completed its cutover.
func (mg *Migration) Done() bool { return mg.done }

// Aborted reports whether the migration was abandoned.
func (mg *Migration) Aborted() bool { return mg.aborted }

// Abort abandons the migration, discarding the buffered pages. The source
// process is untouched — aborting a migration is always safe, which is what
// lets the orchestrator bail out when a kill or a PHOENIX restart hits the
// source mid-transfer (a restart invalidates the buffered baseline: the
// successor is a different process).
func (mg *Migration) Abort() {
	mg.aborted = true
	mg.data = nil
}

func (mg *Migration) usable() error {
	switch {
	case mg.done:
		return fmt.Errorf("kernel: migration: already cut over")
	case mg.aborted:
		return fmt.Errorf("kernel: migration: aborted")
	case mg.src.dead:
		return fmt.Errorf("kernel: migration: source process died")
	}
	return nil
}

// pageSet resolves the current spec and expands it to the sorted set of
// whole pages covering every preserved range (migration ships whole pages;
// the destination mapping geometry mirrors the source's, so the extra bytes
// of a partially covered page belong to the same mapping either way).
func (mg *Migration) pageSet() (ExecSpec, []mem.PageNum, error) {
	spec, err := mg.resolve()
	if err != nil {
		return ExecSpec{}, nil, fmt.Errorf("kernel: migration: resolve spec: %w", err)
	}
	ranges := append([]linker.Range(nil), spec.Ranges...)
	if spec.WithSection && mg.src.Image != nil {
		ranges = append(ranges, mg.src.Image.PreservedRanges()...)
	}
	spec.Ranges = ranges
	spec.WithSection = false
	if len(ranges) == 0 {
		return ExecSpec{}, nil, fmt.Errorf("kernel: migration: empty preserved range set")
	}
	seen := make(map[mem.PageNum]bool)
	var pages []mem.PageNum
	for _, r := range ranges {
		if r.Len <= 0 {
			return ExecSpec{}, nil, fmt.Errorf("kernel: migration: non-positive range length at %#x", uint64(r.Start))
		}
		// Validate coverage the way MovePages does: every page of the range
		// must be mapped in the source.
		cur := mem.PageBase(r.Start)
		for cur < r.End() {
			m := mg.src.AS.FindMapping(cur)
			if m == nil {
				return ExecSpec{}, nil, fmt.Errorf("kernel: migration: unmapped address %#x", uint64(cur))
			}
			cur = m.End()
		}
		for p := mem.PageOf(r.Start); p <= mem.PageOf(r.End()-1); p++ {
			if !seen[p] {
				seen[p] = true
				pages = append(pages, p)
			}
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return spec, pages, nil
}

// shipDelta runs one copy round over pages: stamp scan, re-hash of
// stamp-changed pages, re-buffer of checksum-changed pages.
//
// The scan/hash/read stage fans out over the preserve worker pool — workers
// only read the source space and the round's baseline maps and write staged
// results at owned indices — and the merge then applies them serially in
// page order, so the round's baseline updates and stats are byte-identical
// to the serial walk for every pool width.
func (mg *Migration) shipDelta(pages []mem.PageNum) RoundStats {
	as := mg.src.AS
	st := RoundStats{Scanned: len(pages)}
	type staged struct {
		hashed   bool
		ship     bool
		gen      uint64
		sum      uint64
		resident bool
		data     []byte
	}
	res := make([]staged, len(pages))
	parallelRanges(len(pages), mg.src.Machine.poolWidth(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := pages[i]
			g := as.PageGen(p)
			if got, ok := mg.gens[p]; ok && got == g {
				continue
			}
			res[i].hashed = true
			res[i].gen = g
			res[i].sum = as.PageChecksum(p)
			if s, ok := mg.sums[p]; ok && s == res[i].sum {
				continue // re-hashed, content unchanged: record the stamp only
			}
			res[i].ship = true
			if res[i].resident = as.PageResident(p); res[i].resident {
				res[i].data = as.ReadBytes(mem.VAddr(p)<<mem.PageShift, mem.PageSize)
			}
		}
	})
	for i, r := range res {
		if !r.hashed {
			continue
		}
		st.Hashed++
		mg.gens[pages[i]] = r.gen
		if !r.ship {
			continue
		}
		mg.sums[pages[i]] = r.sum
		if r.resident {
			mg.data[pages[i]] = r.data
		} else {
			delete(mg.data, pages[i]) // reads as zeros on both sides
		}
		st.Shipped++
	}
	mg.rounds++
	mg.shipped += st.Shipped
	return st
}

// DeltaRound performs one background copy round while the source keeps
// serving, charging the source machine's clock per the cost model. The
// returned stats' Shipped count is the convergence signal: the orchestrator
// keeps running rounds until it drops below its cutover threshold.
func (mg *Migration) DeltaRound() (RoundStats, error) {
	if err := mg.usable(); err != nil {
		return RoundStats{}, err
	}
	_, pages, err := mg.pageSet()
	if err != nil {
		return RoundStats{}, err
	}
	st := mg.shipDelta(pages)
	st.Cost = mg.src.Machine.Model.MigrateRound(st.Scanned, st.Hashed, st.Shipped)
	mg.src.Machine.Clock.Advance(st.Cost)
	return st, nil
}

// Cutover completes the migration: one final delta round (the orchestrator
// must have frozen the shard's traffic, so the delta is the last in-flight
// writes, not the write rate), then the destination process is built — same
// image, same link map, same ASLR slide, source mapping geometry mirrored,
// buffered pages installed, fresh image loaded into the gaps — and handed a
// preserve Handoff, so the application on the destination boots down its
// normal PHOENIX recovery path. The source process is killed on success:
// preserved state never has two live owners.
func (mg *Migration) Cutover() (*Process, RoundStats, error) {
	if err := mg.usable(); err != nil {
		return nil, RoundStats{}, err
	}
	spec, pages, err := mg.pageSet()
	if err != nil {
		return nil, RoundStats{}, err
	}
	infoOK := false
	for _, p := range pages {
		if p == mem.PageOf(spec.InfoAddr) {
			infoOK = true
			break
		}
	}
	if !infoOK {
		return nil, RoundStats{}, fmt.Errorf("kernel: migration: info block %#x outside preserved pages", uint64(spec.InfoAddr))
	}
	st := mg.shipDelta(pages)

	src, dst := mg.src, mg.dst
	np := &Process{
		PID:      dst.allocPID(),
		Machine:  dst,
		AS:       mem.NewAddressSpace(),
		Image:    src.Image,
		LinkMap:  src.LinkMap, // preserved via the private link_map syscall
		handlers: make(map[Signal]func(*CrashInfo)),
	}
	// Same slide as the source: the preserved pointers stay valid (§3.3).
	np.AS.ASLRBase = src.AS.ASLRBase

	// Mirror the source's mapping geometry over the preserved pages, then
	// install the buffered images. Non-resident pages stay unmaterialized —
	// they read as zeros on both sides.
	for _, seg := range clipMappings(src.AS, pages) {
		if _, err := np.AS.Map(seg.Start, seg.Pages, seg.Kind, seg.Name); err != nil {
			return nil, RoundStats{}, fmt.Errorf("kernel: migration: map %s: %w", seg.Name, err)
		}
	}
	for _, p := range pages {
		if d, ok := mg.data[p]; ok {
			np.AS.WriteAt(mem.VAddr(p)<<mem.PageShift, d)
		}
	}
	// Load the fresh image into the gaps; the dynamic linker skips the
	// installed preserved ranges, exactly as after a preserve_exec.
	if src.Image != nil {
		if _, err := src.Image.Load(np.AS); err != nil {
			return nil, RoundStats{}, fmt.Errorf("kernel: migration: image load: %w", err)
		}
	}
	np.preserved = &Handoff{
		InfoAddr:   spec.InfoAddr,
		Ranges:     spec.Ranges,
		MovedPages: len(pages),
	}

	st.Cost = src.Machine.Model.MigrateCutover(st.Scanned, st.Hashed, st.Shipped)
	src.Machine.Clock.Advance(st.Cost)
	st.InstallCost = dst.Model.Exec()
	dst.Clock.Advance(st.InstallCost)

	src.dead = true
	mg.done = true
	mg.data = nil
	return np, st, nil
}

// clipMappings returns the source mappings clipped to the runs of
// consecutive pages in the (sorted) page set — the destination's mapping
// geometry.
type mapSegment struct {
	Start mem.VAddr
	Pages int
	Kind  mem.Kind
	Name  string
}

func clipMappings(as *mem.AddressSpace, pages []mem.PageNum) []mapSegment {
	var segs []mapSegment
	for i := 0; i < len(pages); {
		j := i
		for j+1 < len(pages) && pages[j+1] == pages[j]+1 {
			j++
		}
		lo := mem.VAddr(pages[i]) << mem.PageShift
		hi := mem.VAddr(pages[j]+1) << mem.PageShift
		cur := lo
		for cur < hi {
			m := as.FindMapping(cur)
			end := m.End()
			if end > hi {
				end = hi
			}
			segs = append(segs, mapSegment{
				Start: cur,
				Pages: int((end - cur) / mem.PageSize),
				Kind:  m.Kind,
				Name:  m.Name,
			})
			cur = end
		}
		i = j + 1
	}
	return segs
}
