package metrics

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// RecoveryCounters counts the kernel's recovery-mechanism events
// machine-wide: preserve_exec plans staged/committed/aborted, integrity
// checksums verified, caught and reused, and rewind-domain discards. The
// recovery driver counts its fallbacks by cause and its ladder transitions
// in recovery.Stats. Together they make the supervision contract
// observable: Staged == Committed + CommitAborts, every abort is matched by
// a counted fallback rather than a torn successor, and every checksum
// mismatch surfaces as an integrity fallback instead of a corrupt boot.
//
// All fields are atomic: the harness mutates them on the simulated main
// timeline while background cross-check goroutines may snapshot them
// concurrently, and campaign reporters read them from outside the run.
type RecoveryCounters struct {
	// PreservesStaged counts preserve_exec calls whose transfer plan passed
	// validation (coverage, destination overlap, partial-page geometry).
	PreservesStaged atomic.Int64
	// PreservesCommitted counts preserve_exec calls that fully committed:
	// every page move and partial copy applied, the image loaded, and the
	// integrity checksums verified.
	PreservesCommitted atomic.Int64
	// PreservesAborted counts preserve_exec calls that failed — at
	// validation (source untouched) or during commit (rolled back).
	PreservesAborted atomic.Int64
	// ChecksumsVerified counts per-frame integrity checksums that were
	// staged into the preserve info block and re-verified clean in the new
	// address space, counted when the clean background verdict lands.
	ChecksumsVerified atomic.Int64
	// ChecksumMismatches counts integrity verification failures: a preserved
	// frame whose post-commit contents diverged from the stage-time checksum
	// (a bit flip in the preservation channel). Each is a failing background
	// verdict, and the driver falls back from the successor it judged.
	ChecksumMismatches atomic.Int64
	// ChecksumsReused counts per-frame checksums the incremental preserve
	// path reused from the prior verified commit's cache instead of
	// re-hashing, because the page's soft-dirty bit was still clear.
	ChecksumsReused atomic.Int64
	// IncrementalAuditDivergences counts verified commits where the
	// incremental checksum walk passed but the audit-mode full walk found a
	// mismatch — the incremental walk validated less than the full walk
	// would. Any nonzero value is a soundness bug in dirty tracking or the
	// delta-checksum protocol; the exploration oracles flag it.
	IncrementalAuditDivergences atomic.Int64
	// DomainDiscards counts rewind-domain discards at the kernel layer,
	// whatever triggered them (the rewind rung or a campaign probe). Each one
	// restored the touched pages byte-exactly.
	DomainDiscards atomic.Int64
}

// NewRecoveryCounters returns zeroed counters.
func NewRecoveryCounters() *RecoveryCounters { return &RecoveryCounters{} }

// Snapshot exports the counters as a name → value map for reports and tests.
// It is safe to call concurrently with updates; each value is read
// atomically (the map as a whole is not one consistent cut).
func (c *RecoveryCounters) Snapshot() map[string]int64 {
	return map[string]int64{
		"preserves_staged":              c.PreservesStaged.Load(),
		"preserves_committed":           c.PreservesCommitted.Load(),
		"preserves_aborted":             c.PreservesAborted.Load(),
		"checksums_verified":            c.ChecksumsVerified.Load(),
		"checksum_mismatches":           c.ChecksumMismatches.Load(),
		"checksums_reused":              c.ChecksumsReused.Load(),
		"incremental_audit_divergences": c.IncrementalAuditDivergences.Load(),
		"domain_discards":               c.DomainDiscards.Load(),
	}
}

// MarshalJSON exports the Snapshot map. encoding/json emits map keys in
// sorted order, so the bytes are deterministic for equal counter values —
// two same-seed runs serialise identically.
func (c *RecoveryCounters) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}

func (c *RecoveryCounters) String() string {
	return fmt.Sprintf("staged=%d committed=%d aborted=%d checksums=%d/%d-bad",
		c.PreservesStaged.Load(), c.PreservesCommitted.Load(), c.PreservesAborted.Load(),
		c.ChecksumsVerified.Load(), c.ChecksumMismatches.Load())
}
