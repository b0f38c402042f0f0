package metrics

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// RecoveryCounters counts recovery-mechanism lifecycle events machine-wide:
// preserve_exec plans staged/committed/aborted, integrity checksums verified
// and caught, driver-level fallbacks by cause, and escalation-ladder
// transitions. The kernel increments the preserve and checksum counters; the
// recovery driver increments the fallback and escalation counters. Together
// they make the supervision contract observable: Staged == Committed +
// CommitAborts, every abort is matched by a counted fallback rather than a
// torn successor, and every checksum mismatch surfaces as an integrity
// fallback instead of a corrupt boot.
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
	// RecoveryFaultFallbacks counts driver fallbacks taken because
	// preserve_exec itself failed operationally (as opposed to
	// unsafe-region, grace-window, cross-check, or integrity fallbacks).
	RecoveryFaultFallbacks atomic.Int64
	// IntegrityFallbacks counts driver fallbacks taken because a failing
	// integrity verdict detected corrupted preserved state.
	IntegrityFallbacks atomic.Int64
	// BreakerTrips counts crash-loop breaker activations: the sliding
	// restart-history window exceeded its threshold and the supervisor
	// escalated the recovery mechanism.
	BreakerTrips atomic.Int64
	// Escalations counts downward ladder transitions (PHOENIX → builtin →
	// vanilla); currently every escalation is a breaker trip.
	Escalations atomic.Int64
	// Deescalations counts upward ladder transitions back toward PHOENIX
	// after a stable serving period.
	Deescalations atomic.Int64
	// Rewinds counts faulting requests recovered by discarding their rewind
	// domain in-process — the cheapest rung, below any restart.
	Rewinds atomic.Int64
	// Microreboots counts component-level reboots: one component's transient
	// state discarded and reinitialised (dependents cascading) while the
	// process keeps its address space.
	Microreboots atomic.Int64
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
		"recovery_fault_fallbacks":      c.RecoveryFaultFallbacks.Load(),
		"integrity_fallbacks":           c.IntegrityFallbacks.Load(),
		"breaker_trips":                 c.BreakerTrips.Load(),
		"escalations":                   c.Escalations.Load(),
		"deescalations":                 c.Deescalations.Load(),
		"rewinds":                       c.Rewinds.Load(),
		"microreboots":                  c.Microreboots.Load(),
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
	return fmt.Sprintf("staged=%d committed=%d aborted=%d checksums=%d/%d-bad recovery-fault-fallbacks=%d integrity-fallbacks=%d breaker-trips=%d esc=%d deesc=%d",
		c.PreservesStaged.Load(), c.PreservesCommitted.Load(), c.PreservesAborted.Load(),
		c.ChecksumsVerified.Load(), c.ChecksumMismatches.Load(),
		c.RecoveryFaultFallbacks.Load(), c.IntegrityFallbacks.Load(),
		c.BreakerTrips.Load(), c.Escalations.Load(), c.Deescalations.Load())
}
