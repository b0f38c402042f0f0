package recovery

// Concurrent serving off MVCC preserved snapshots. The harness stays a
// single-writer machine — every mutation still flows through ServeRequest on
// one goroutine — but the preserved data structures are multi-version:
// SnapshotCommit freezes the live address space into an immutable version
// (mem.SnapshotStore, copy-on-write against the previous version), and any
// number of readers serve read-only requests off that version while the
// writer advances the next one. The simulated cost of a read batch is the
// fan-out model (costmodel.ConcurrentReadBatch): N readers amortise the batch
// at the price of N reader spawns. Go-level execution of a batch stays
// sequential here so harness runs are deterministic; the real-goroutine
// hammering lives in the race-test battery, which drives SnapshotReader
// handles from concurrent readers directly.

import (
	"fmt"

	"phoenix/internal/mem"
	"phoenix/internal/workload"
)

// SnapshotServer is an optional App extension: apps whose preserved state can
// be served read-only off a frozen MVCC view implement it. OpenSnapshotReader
// is called on the writer thread (it may read the live clock and Go-side
// indexes); the returned closure must be pure — it may touch only the view
// and values captured at build time, never app stats, injectors, or the live
// address space — so it is safe to call from many goroutines at once.
type SnapshotServer interface {
	OpenSnapshotReader(view *mem.AddressSpace) func(req *workload.Request) (ok, effective bool)
}

// SnapshotReader is one open handle on a committed snapshot version: the
// frozen view plus the app's reader bound to it. Serve is safe for concurrent
// use; Close releases the version (a superseded version's pages are reclaimed
// when its last reader closes).
type SnapshotReader struct {
	store *mem.SnapshotStore
	v     *mem.SnapshotVersion
	serve func(*workload.Request) (bool, bool)
}

// Serve answers one read-only request from the frozen view.
func (r *SnapshotReader) Serve(req *workload.Request) (ok, effective bool) { return r.serve(req) }

// Version exposes the underlying MVCC version (tests, oracles).
func (r *SnapshotReader) Version() *mem.SnapshotVersion { return r.v }

// CheckFrozen runs the stale-snapshot oracle on the held version.
func (r *SnapshotReader) CheckFrozen() error { return r.v.CheckFrozen() }

// Close releases the held version.
func (r *SnapshotReader) Close() { r.store.Release(r.v) }

// snapshotStore returns the store bound to the live process's address space,
// creating it when none exists yet or when a restart/migration installed a
// new space (versions of the dead incarnation die with it — the first commit
// on the new space counts every page as changed, and only faults taken from
// then on are charged).
func (h *Harness) snapshotStore() *mem.SnapshotStore {
	if h.snapStore == nil || h.snapStore.Space() != h.proc.AS {
		h.snapStore = mem.NewSnapshotStore(h.proc.AS)
		h.snapFaults = h.proc.AS.SnapshotFaults()
	}
	return h.snapStore
}

// chargeSnapshotFaults charges SnapshotCopyPerPage for each snapshot fault
// the live space took since the last charge: the first write, after a
// commit, to a page a retained version shares copies it. The harness calls
// it after each step that runs application writes (a request, a cleanup's
// Reclaim), so a copy lands on the clock of the step whose write made it,
// and a crashed request pays its faults before its recovery starts. Faults
// count only while the store is bound to the live space: a dead
// incarnation's versions die with it.
func (h *Harness) chargeSnapshotFaults() {
	if h.snapStore == nil || h.snapStore.Space() != h.proc.AS {
		return
	}
	if n := h.proc.AS.SnapshotFaults(); n > h.snapFaults {
		h.M.Clock.Advance(h.M.Model.SnapshotFaults(n - h.snapFaults))
		h.snapFaults = n
	}
}

// SnapshotCommit freezes the current application state as a new MVCC version,
// charging costmodel.SnapshotCommit: the fixed publish cost and one
// write-protect per page changed since the previous commit. It copies no
// page; the live space's writes pay for the copies as snapshot faults.
// Returns the version's changed pages (SnapshotVersion.Changed). The app
// must implement SnapshotServer — committing versions nobody can read is a
// driver bug.
func (h *Harness) SnapshotCommit() (changed int, err error) {
	if _, ok := h.App.(SnapshotServer); !ok {
		return 0, fmt.Errorf("recovery: %s does not implement SnapshotServer", h.App.Name())
	}
	if h.proc == nil {
		return 0, fmt.Errorf("recovery: SnapshotCommit before Boot")
	}
	v := h.snapshotStore().Commit()
	h.M.Clock.Advance(h.M.Model.SnapshotCommit(v.Changed()))
	return v.Changed(), nil
}

// OpenSnapshot opens the latest committed version and binds the app's reader
// to it. Must be called on the writer thread; the returned handle may then be
// shared across reader goroutines. The caller owns the handle and must Close
// it.
func (h *Harness) OpenSnapshot() (*SnapshotReader, error) {
	ss, ok := h.App.(SnapshotServer)
	if !ok {
		return nil, fmt.Errorf("recovery: %s does not implement SnapshotServer", h.App.Name())
	}
	if h.proc == nil || h.snapStore == nil || h.snapStore.Space() != h.proc.AS {
		return nil, fmt.Errorf("recovery: no snapshot committed for the live process")
	}
	v := h.snapStore.Open()
	if v == nil {
		return nil, fmt.Errorf("recovery: no snapshot committed")
	}
	return &SnapshotReader{store: h.snapStore, v: v, serve: ss.OpenSnapshotReader(v.View())}, nil
}

// ServeSnapshotReads serves reqs off the latest committed snapshot at the
// given reader fan-out, charging costmodel.ConcurrentReadBatch. The requests
// execute sequentially in Go (determinism); readers expresses the modelled
// concurrency. After the batch the stale-snapshot oracle runs: stale is 1 if
// any frame of the served version postdates its commit horizon (a reader
// could have observed a post-snapshot write), else 0.
func (h *Harness) ServeSnapshotReads(reqs []*workload.Request, readers int) (effective, stale int, err error) {
	r, err := h.OpenSnapshot()
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	for _, req := range reqs {
		if _, eff := r.Serve(req); eff {
			effective++
		}
	}
	if ferr := r.CheckFrozen(); ferr != nil {
		stale = 1
		h.event(EvSnapshotStale, ferr.Error())
	}
	h.M.Clock.Advance(h.M.Model.ConcurrentReadBatch(len(reqs), readers))
	h.event(EvSnapshotRead, fmt.Sprintf("%d reads x %d readers (v%d)", len(reqs), readers, r.Version().Seq()))
	return effective, stale, nil
}

// SnapshotReadBatch is the scheduled action the serving fabric drives:
// commit a fresh version, then serve count in-distribution reads off it at
// the given fan-out. Write ops drawn from the generator are demoted to
// reads of the same key, so the batch probes live keys without mutating.
func (h *Harness) SnapshotReadBatch(count, readers int) (effective, stale int, err error) {
	if count <= 0 {
		count = 1
	}
	if _, err := h.SnapshotCommit(); err != nil {
		return 0, 0, err
	}
	reqs := make([]*workload.Request, count)
	for i := range reqs {
		rq := *h.Gen.Next()
		if rq.Op != workload.OpWebGet {
			rq.Op = workload.OpRead
		}
		reqs[i] = &rq
	}
	return h.ServeSnapshotReads(reqs, readers)
}
