// Package costmodel centralises the calibrated cost constants that drive the
// simulated clock.
//
// The constants are derived from figures the paper reports on its testbed
// (Intel Xeon Silver 4114, 480 GB SATA SSD):
//
//   - a baseline process restart takes 1.02 ms (§4.1);
//   - a PHOENIX restart with <4 MB preserved takes ~1.20 ms, i.e. ~180 µs of
//     fixed PHOENIX bookkeeping on top of the baseline;
//   - restart latency grows linearly with preserved pages: 32 GB ≈ 220.6 ms,
//     giving ~26 ns per 4 KiB page of PTE-move work;
//   - Redis serves a 90/10 YCSB workload at 53.3 K QPS (≈18.8 µs/request);
//   - loading a 6 GB RDB takes 53.5 s (≈112 MB/s effective unmarshal rate,
//     dominated by allocation + decoding, not raw SSD bandwidth);
//   - the SSD streams at ~500 MB/s for sequential page images (CRIU).
//
// Every component that advances the simulated clock imports its constants
// from here so experiments remain mutually consistent and auditable.
package costmodel

import "time"

// Page is the simulated page size in bytes. It matches x86-64 base pages.
const Page = 4096

// Model holds the tunable cost constants. A zero Model is not usable; obtain
// one from Default and adjust fields in tests when needed.
type Model struct {
	// ExecBase is the fixed cost of tearing down a process and exec'ing a
	// fresh image (fork+exec+dynamic linking), per the paper's 1.02 ms
	// baseline restart.
	ExecBase time.Duration

	// PhoenixFixed is the additional fixed cost of a PHOENIX-mode restart
	// (preserve_exec bookkeeping, link-map transfer, runtime re-init).
	PhoenixFixed time.Duration

	// PTEMove is the per-page cost of moving one page-table entry from the
	// old address space to the new one during preserve_exec.
	PTEMove time.Duration

	// PageCopy is the per-page cost of physically copying a page (used when
	// only part of a page is preserved, and by fork-based snapshots).
	PageCopy time.Duration

	// DiskSeqReadRate / DiskSeqWriteRate are sequential disk throughputs in
	// bytes per second.
	DiskSeqReadRate  int64
	DiskSeqWriteRate int64

	// DiskLatency is the fixed per-operation disk latency.
	DiskLatency time.Duration

	// UnmarshalPerByte is the per-byte cost of decoding a persistence image
	// back into live data structures (RDB-style load). It dominates builtin
	// recovery per §2.1.
	UnmarshalPerByte time.Duration

	// UnmarshalPerObject is the per-object allocation+insert cost during a
	// builtin load.
	UnmarshalPerObject time.Duration

	// MarshalPerByte is the per-byte cost of encoding data structures into a
	// persistence image (RDB save, checkpoint write).
	MarshalPerByte time.Duration

	// LogReplayPerRecord is the per-record cost of WAL replay (LevelDB).
	LogReplayPerRecord time.Duration

	// ForkPerPage is the per-page cost of forking a process image (used by
	// cross-check validation's background process and by fork snapshots).
	ForkPerPage time.Duration

	// ChecksumPerPage is the per-page cost of computing the FNV-1a integrity
	// checksum preserve_exec stamps into the preserve info block. At ~2.7 GB/s
	// for a byte-at-a-time FNV over a 4 KiB page this is the dominant preserve
	// cost once the preserved set grows, which is what incremental (delta)
	// checksumming amortises.
	ChecksumPerPage time.Duration

	// DirtyScanPerPage is the per-page cost of reading one soft-dirty bit
	// during the delta-preserve walk (a PTE read, no data touch). It is what
	// an incremental preserve still pays for every preserved page, dirty or
	// clean — the irreducible O(preserved) term, ~300x cheaper than hashing.
	DirtyScanPerPage time.Duration

	// FreezeFixed is the stop-the-world cost CRIU pays to freeze the process
	// before dumping, per snapshot.
	FreezeFixed time.Duration

	// RequestBase is the base CPU cost of parsing/dispatching one request in
	// a server app, before data-structure work.
	RequestBase time.Duration

	// MemOp is the cost of one simulated-memory data-structure step (a node
	// visit, a hash probe, a pointer chase).
	MemOp time.Duration

	// ByteTouch is the per-byte cost of reading or writing value payloads.
	ByteTouch time.Duration

	// GCSweepPerChunk is the per-chunk cost of the PHOENIX mark-and-sweep
	// cleanup pass after a restart.
	GCSweepPerChunk time.Duration

	// ComputePerUnit is the cost of one unit of computational work in the
	// batch apps (one boosting-tree node scan, one particle push).
	ComputePerUnit time.Duration

	// UnsafeMark is the cost of one unsafe-region state transition (the
	// counter update / state-stack maintenance the compiler instruments,
	// §3.5). Together with allocator tracking this is PHOENIX's runtime
	// overhead source (Table 8).
	UnsafeMark time.Duration

	// DomainBegin is the fixed cost of opening a per-request rewind domain:
	// arming the copy-on-write capture is O(1) — pre-images are taken lazily
	// at first touch, so entry pays no per-page term.
	DomainBegin time.Duration

	// DomainCoWPerPage is the per-page cost of the lazy pre-image capture a
	// rewind domain pays for each page the request writes (one page copy plus
	// undo-log bookkeeping). Charged when the domain closes, per touched page.
	DomainCoWPerPage time.Duration

	// DomainRestorePerPage is the additional per-page cost DiscardDomain pays
	// to write the captured pre-image back (a second page copy); a commit
	// drops the undo log without paying it.
	DomainRestorePerPage time.Duration

	// MicrorebootFixed is the fixed cost of a component microreboot:
	// quiescing the component, walking the dependency cascade, and swapping
	// its transient state — well below a process restart (no exec, no
	// preserve), well above a request rewind.
	MicrorebootFixed time.Duration

	// ComponentReinitPerUnit is the per-unit cost of rebuilding one unit of a
	// component's derived state during a microreboot (a dictionary entry
	// relinked, a WAL record replayed, a sample's prediction recomputed).
	ComponentReinitPerUnit time.Duration

	// MigrateRoundFixed is the per-round fixed cost of one shard-migration
	// copy round: snapshotting the dirty set, setting up the transfer, and
	// the control-plane round trip with the destination.
	MigrateRoundFixed time.Duration

	// MigratePerPage is the per-page cost of shipping one preserved page to
	// another machine during live shard migration (read + transfer + install;
	// the fabric's link latency is charged separately by netsim). It is paid
	// only for pages whose content actually changed since the previous round,
	// which is what makes migration cost track the write rate.
	MigratePerPage time.Duration

	// MigrateCutoverFixed is the fixed cost of the migration cutover: freezing
	// the shard's routing, the final ownership handshake, and unfreezing. The
	// cutover additionally pays MigratePerPage for the final dirty delta and
	// the dirty-scan/hash terms for detecting it — so the cutover window
	// scales with the final delta, never with the shard size.
	MigrateCutoverFixed time.Duration

	// SnapshotCommitFixed is the fixed cost of committing one MVCC snapshot
	// version: bumping the version sequence, freezing the mapping table, and
	// publishing the version pointer under the store lock.
	SnapshotCommitFixed time.Duration

	// SnapshotCopyPerPage is the per-page cost of one snapshot fault: the
	// live space's first write, after a commit, to a page a retained
	// version shares copies the page (a page copy plus version
	// bookkeeping). The commit copies nothing, and a page written again
	// before the next commit costs nothing more, so the copies track the
	// write rate (SnapshotFaults).
	SnapshotCopyPerPage time.Duration

	// ReaderSpawn is the per-reader fixed cost of standing up one concurrent
	// snapshot reader for a batch: opening the latest version (a refcount
	// under the store lock) plus scheduling.
	ReaderSpawn time.Duration

	// SnapshotReadCost is the mean cost of serving one read off an immutable
	// snapshot: cheaper than RequestBase service because there is no
	// dispatch through the writer path, no unsafe-region bracketing, and no
	// rewind-domain bookkeeping — just the lock-free structure walk.
	SnapshotReadCost time.Duration

	// PreserveWorkerSpawn is the per-worker fixed cost of the parallel
	// preserve path: forking one worker into the checksum/scan pool and
	// joining it at the deterministic merge barrier. Nothing charges it: the
	// pool's width changes wall-clock time only, and the simulated clock
	// pays the serial walks (kernel/parallel.go).
	PreserveWorkerSpawn time.Duration
}

// Default returns the calibrated model described in the package comment.
func Default() Model {
	return Model{
		ExecBase:           1020 * time.Microsecond,
		PhoenixFixed:       180 * time.Microsecond,
		PTEMove:            26 * time.Nanosecond,
		PageCopy:           400 * time.Nanosecond,
		DiskSeqReadRate:    500 << 20, // ~500 MiB/s
		DiskSeqWriteRate:   400 << 20, // ~400 MiB/s
		DiskLatency:        100 * time.Microsecond,
		UnmarshalPerByte:   9 * time.Nanosecond, // ~112 MB/s effective
		UnmarshalPerObject: 350 * time.Nanosecond,
		MarshalPerByte:     4 * time.Nanosecond,
		LogReplayPerRecord: 2 * time.Microsecond,
		ForkPerPage:        150 * time.Nanosecond,
		ChecksumPerPage:    1500 * time.Nanosecond,
		DirtyScanPerPage:   5 * time.Nanosecond,
		FreezeFixed:        3 * time.Millisecond,
		RequestBase:        12 * time.Microsecond,
		MemOp:              60 * time.Nanosecond,
		ByteTouch:          1 * time.Nanosecond,
		GCSweepPerChunk:    40 * time.Nanosecond,
		ComputePerUnit:     25 * time.Nanosecond,
		UnsafeMark:         120 * time.Nanosecond,

		DomainBegin:            300 * time.Nanosecond,
		DomainCoWPerPage:       450 * time.Nanosecond,
		DomainRestorePerPage:   420 * time.Nanosecond,
		MicrorebootFixed:       25 * time.Microsecond,
		ComponentReinitPerUnit: 800 * time.Nanosecond,

		MigrateRoundFixed:   8 * time.Microsecond,
		MigratePerPage:      900 * time.Nanosecond, // page read + wire + install at ~4.5 GB/s
		MigrateCutoverFixed: 20 * time.Microsecond,

		SnapshotCommitFixed: 2 * time.Microsecond,
		SnapshotCopyPerPage: 500 * time.Nanosecond, // page copy + version bookkeeping
		ReaderSpawn:         2 * time.Microsecond,
		SnapshotReadCost:    3 * time.Microsecond,
		PreserveWorkerSpawn: 5 * time.Microsecond,
	}
}

// DiskRead returns the modelled time to read n sequential bytes.
func (m Model) DiskRead(n int64) time.Duration {
	return m.DiskLatency + rateTime(n, m.DiskSeqReadRate)
}

// DiskWrite returns the modelled time to write n sequential bytes.
func (m Model) DiskWrite(n int64) time.Duration {
	return m.DiskLatency + rateTime(n, m.DiskSeqWriteRate)
}

// rateTime converts n bytes at rate bytes/second into a duration.
func rateTime(n, rate int64) time.Duration {
	if rate <= 0 {
		return 0
	}
	sec := float64(n) / float64(rate)
	return time.Duration(sec * float64(time.Second))
}

// PreserveExec returns the modelled duration of a PHOENIX preserve_exec with
// the given number of preserved and copied pages.
func (m Model) PreserveExec(movedPages, copiedPages int) time.Duration {
	return m.ExecBase + m.PhoenixFixed +
		time.Duration(movedPages)*m.PTEMove +
		time.Duration(copiedPages)*m.PageCopy
}

// Exec returns the modelled duration of a plain restart (no preservation).
func (m Model) Exec() time.Duration { return m.ExecBase }

// PreserveExecDelta returns the modelled duration of an incremental
// preserve_exec: the PTE moves and partial-page copies of PreserveExec, plus
// a soft-dirty scan over every preserved page (scannedPages) and fresh
// checksums only for the pages actually hashed (hashedPages — dirty or
// cache-miss pages). Clean cached pages contribute only the scan term, which
// is why commit latency scales with the write rate rather than the preserved
// set.
func (m Model) PreserveExecDelta(movedPages, copiedPages, hashedPages, scannedPages int) time.Duration {
	return m.PreserveExec(movedPages, copiedPages) +
		time.Duration(hashedPages)*m.ChecksumPerPage +
		time.Duration(scannedPages)*m.DirtyScanPerPage
}

// RewindCommit returns the modelled duration of closing a rewind domain and
// keeping its writes: the deferred CoW capture for every touched page, then
// dropping the undo log.
func (m Model) RewindCommit(touchedPages int) time.Duration {
	return time.Duration(touchedPages) * m.DomainCoWPerPage
}

// RewindDiscard returns the modelled duration of rolling a rewind domain
// back: the CoW capture plus the pre-image write-back, per touched page. This
// is the rewind rung's whole unavailability window — no exec, no preserve,
// no checksum walk.
func (m Model) RewindDiscard(touchedPages int) time.Duration {
	return time.Duration(touchedPages) * (m.DomainCoWPerPage + m.DomainRestorePerPage)
}

// Microreboot returns the modelled duration of microrebooting components
// whose reinitialisation rebuilds reinitUnits units of derived state across
// cascaded components.
func (m Model) Microreboot(components, reinitUnits int) time.Duration {
	return time.Duration(components)*m.MicrorebootFixed +
		time.Duration(reinitUnits)*m.ComponentReinitPerUnit
}

// MigrateRound returns the modelled duration of one live-migration copy
// round: a soft-dirty scan over every preserved page of the shard, a fresh
// hash for each candidate page (to detect content actually changed since the
// last round), and the transfer cost for the pages that were re-shipped.
func (m Model) MigrateRound(scannedPages, hashedPages, shippedPages int) time.Duration {
	return m.MigrateRoundFixed +
		time.Duration(scannedPages)*m.DirtyScanPerPage +
		time.Duration(hashedPages)*m.ChecksumPerPage +
		time.Duration(shippedPages)*m.MigratePerPage
}

// MigrateCutover returns the modelled duration of the migration cutover
// window: the fixed freeze/handshake cost plus one final delta round. Only
// the final delta's pages are hashed and shipped, so the window is a
// function of the write rate during the last round, not of the shard size.
func (m Model) MigrateCutover(scannedPages, hashedPages, shippedPages int) time.Duration {
	return m.MigrateCutoverFixed + m.MigrateRound(scannedPages, hashedPages, shippedPages)
}

// SnapshotCommit returns the modelled duration of committing one MVCC
// snapshot version with changedPages pages changed since the predecessor
// version: the fixed publish cost plus a copy-on-write fork over the
// changed pages, which write-protects each one and copies none (the rest
// are shared with the predecessor). Each copy is charged later, at the
// fault that makes it (SnapshotFaults).
func (m Model) SnapshotCommit(changedPages int) time.Duration {
	return m.SnapshotCommitFixed + m.ForkCoW(changedPages, 0)
}

// SnapshotFaults returns the modelled duration of faults snapshot faults:
// copy-on-write faults the live space takes on pages a retained snapshot
// version shares, each one page copy.
func (m Model) SnapshotFaults(faults int) time.Duration {
	return time.Duration(faults) * m.SnapshotCopyPerPage
}

// ConcurrentReadBatch returns the modelled duration of serving reads requests
// off an immutable snapshot with readers concurrent readers: each reader
// pays its spawn cost, and the batch completes when the most loaded reader
// finishes its ceil(reads/readers) share. This is the term that makes the
// serving tier scale with readers — the snapshot store has no writer lock on
// the read path.
func (m Model) ConcurrentReadBatch(reads, readers int) time.Duration {
	if readers < 1 {
		readers = 1
	}
	perReader := (reads + readers - 1) / readers
	return time.Duration(readers)*m.ReaderSpawn +
		time.Duration(perReader)*m.SnapshotReadCost
}

// ForkCoW returns the modelled duration of a copy-on-write fork over a region
// of totalPages of which dirtyPages must be duplicated eagerly: every page
// costs a PTE scan, and only the dirty ones pay the full fork copy. The
// cross-check validator uses this once dirty tracking lets it walk just the
// modified set.
func (m Model) ForkCoW(totalPages, dirtyPages int) time.Duration {
	return time.Duration(totalPages)*m.DirtyScanPerPage +
		time.Duration(dirtyPages)*m.ForkPerPage
}
