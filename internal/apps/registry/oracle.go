package registry

// This file defines the invariant-oracle contract the exploration engine
// (internal/explore) checks after every randomized fault schedule. The types
// live here rather than in explore because an oracle is a statement about an
// *application's* semantics — what durability, staleness, and recovery
// accounting mean for kvstore are registry knowledge, while explore only
// knows how to generate schedules and shrink failures. Registry already
// imports recovery and shard, so the observation can carry both a
// single-harness run and a fabric report without a cycle.

import (
	"fmt"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

// TraceStep records one served request of a single-harness run, in order,
// with the simulated instants it started and ended at.
type TraceStep struct {
	Index     int           `json:"index"`
	Op        string        `json:"op"`
	Key       string        `json:"key"`
	OK        bool          `json:"ok"`
	Effective bool          `json:"effective"`
	Start     time.Duration `json:"start_ns"`
	End       time.Duration `json:"end_ns"`
}

// RecoveryRecord classifies one crash-recovery episode. CleanPreserve means
// the episode was exactly one PHOENIX restart with zero fallbacks of any
// kind — the only recovery class that preserves in-memory state.
type RecoveryRecord struct {
	// AtStep is the trace index the crash preceded: the recovery ran after
	// Steps[AtStep-1] and before Steps[AtStep].
	AtStep        int    `json:"at_step"`
	CleanPreserve bool   `json:"clean_preserve"`
	Level         string `json:"level"`
	// ChecksumsVerified counts the preserved-frame checksums the episode's
	// commit read back clean when its background verdict landed: zero when
	// nothing committed, verification was off, or the verdict failed.
	ChecksumsVerified int64 `json:"checksums_verified"`
}

// Observation is everything an oracle may judge about one schedule run. A
// single-harness run fills the trace/stats/counters fields; a fabric run
// fills Shard and leaves the rest zero.
type Observation struct {
	App        string
	Steps      []TraceStep
	Recoveries []RecoveryRecord
	// CorruptionsFired counts armed kernel.preserve.corrupt bit flips that
	// actually struck a preserved frame; OpFaultsFired counts fired
	// operation-failure faults on the preserve path.
	CorruptionsFired int
	OpFaultsFired    int
	Stats            recovery.Stats
	Counters         map[string]int64
	FinalLevel       recovery.Level
	// Floor is the rung the harness started at and may de-escalate back to
	// (Harness.LadderFloor); Domains reports whether requests ran inside
	// rewind domains.
	Floor   recovery.Level
	Domains bool
	// ComponentViolations carries failures of the application's own
	// VerifyComponents invariant (dangling cross-component state), gathered
	// by the engine after every recovery episode.
	ComponentViolations []string
	// Terminated carries the driver's terminal error (retry-budget
	// exhaustion) when the run stopped early; empty otherwise.
	Terminated string
	// Dump is the application's logical state at the end of a
	// single-harness run (nil if taking it crashed).
	Dump core.StateDump
	// Shard carries the fabric report when the schedule ran in shard mode.
	Shard *shard.Report
}

// Oracle is one invariant checked against a completed run. Check returns one
// human-readable violation string per broken invariant; an empty slice means
// the run upheld it. Oracles must be deterministic pure functions of the
// observation: the exploration engine shrinks schedules by re-running them
// and comparing the set of violated oracle names.
type Oracle interface {
	Name() string
	Check(o *Observation) []string
}

// OraclesFor returns the invariants applicable to one application's
// single-harness runs, in deterministic order. The durability oracle only
// applies to the storage apps: caches evict at will and the compute apps
// have no key-value semantics.
func OraclesFor(app string) []Oracle {
	out := []Oracle{accountingOracle{}, ladderOracle{}}
	if app == "kvstore" || app == "lsmdb" {
		out = append(out, durabilityOracle{})
	}
	out = append(out, componentOracle{})
	return out
}

// counterLookup returns a reader over a machine-counter snapshot
// (metrics.RecoveryCounters.Snapshot) for an oracle's clauses. A key the
// snapshot lacks reads as 0 and adds one violation naming it, prefixed by
// where, so a renamed or deleted counter fails its clause instead of
// comparing against 0.
func counterLookup(snap map[string]int64, where string, add func(string, ...interface{})) func(string) int64 {
	missing := map[string]bool{}
	return func(key string) int64 {
		n, ok := snap[key]
		if !ok && !missing[key] {
			missing[key] = true
			add("%scounter %q missing from the machine-counter snapshot", where, key)
		}
		return n
	}
}

// --- accounting oracle ---

// accountingOracle cross-checks the kernel's machine-wide recovery counters
// against the driver's per-harness stats and the fired-fault ground truth.
// Its sharpest clause is the silent-corruption predicate: every bit flip
// injected into a preserved frame must surface as a checksum mismatch — if
// one committed silently, acknowledged state survived corrupted and the
// whole preservation contract is void.
type accountingOracle struct{}

func (accountingOracle) Name() string { return "accounting" }

func (accountingOracle) Check(o *Observation) []string {
	var v []string
	add := func(format string, args ...interface{}) { v = append(v, fmt.Sprintf(format, args...)) }
	c := counterLookup(o.Counters, "", add)

	if int64(o.CorruptionsFired) > c("checksum_mismatches") {
		add("silent corruption: %d bit flips fired against preserved frames but only %d checksum mismatches counted",
			o.CorruptionsFired, c("checksum_mismatches"))
	}
	if o.OpFaultsFired != o.Stats.RecoveryFaultFallbacks {
		add("op faults fired (%d) != recovery-fault fallbacks (%d): a failed preserve was not contained",
			o.OpFaultsFired, o.Stats.RecoveryFaultFallbacks)
	}
	if c("checksum_mismatches") != int64(o.Stats.IntegrityFallbacks) {
		add("checksum mismatches (%d) != integrity fallbacks (%d): a detection was not contained",
			c("checksum_mismatches"), o.Stats.IntegrityFallbacks)
	}
	if c("incremental_audit_divergences") > 0 {
		add("incremental verification unsound: %d commits passed the delta checksum walk but failed the full walk",
			c("incremental_audit_divergences"))
	}
	if c("checksums_reused") > 0 && c("preserves_committed") == 0 {
		add("checksum reuse (%d) without any committed preserve: the delta baseline leaked through a failed commit",
			c("checksums_reused"))
	}
	if c("preserves_committed") > c("preserves_staged") {
		add("preserves committed (%d) exceed staged (%d)", c("preserves_committed"), c("preserves_staged"))
	}
	if c("preserves_aborted") < c("preserves_staged")-c("preserves_committed") {
		add("aborted preserves (%d) below staged-minus-committed (%d-%d)",
			c("preserves_aborted"), c("preserves_staged"), c("preserves_committed"))
	}
	if int64(o.Stats.PhoenixRestarts) != c("preserves_committed") {
		add("phoenix restarts (%d) != committed preserves (%d)", o.Stats.PhoenixRestarts, c("preserves_committed"))
	}
	return v
}

// --- ladder oracle ---

// ladderOracle checks supervisor monotonicity from the event log: every
// escalation steps exactly one rung down, every de-escalation exactly one
// rung up, the walk stays inside [phoenix, vanilla], and the final rung of
// the walk matches the harness's reported level.
type ladderOracle struct{}

func (ladderOracle) Name() string { return "ladder" }

func parseLevel(s string) (recovery.Level, bool) {
	for l := recovery.LevelRewind; l <= recovery.LevelVanilla; l++ {
		if l.String() == s {
			return l, true
		}
	}
	return 0, false
}

func (ladderOracle) Check(o *Observation) []string {
	var v []string
	add := func(format string, args ...interface{}) { v = append(v, fmt.Sprintf(format, args...)) }

	if o.Stats.Escalations != o.Stats.BreakerTrips {
		add("escalations (%d) != breaker trips (%d)", o.Stats.Escalations, o.Stats.BreakerTrips)
	}
	if o.Stats.Deescalations > o.Stats.Escalations {
		add("more de-escalations (%d) than escalations (%d)", o.Stats.Deescalations, o.Stats.Escalations)
	}
	// The event walk needs the full log; a compacted one lost its prefix.
	if o.Stats.DroppedEvents > 0 {
		return v
	}
	level := o.Floor
	esc, deesc := 0, 0
	for i, ev := range o.Stats.Events {
		switch ev.Kind {
		case recovery.EvEscalate:
			to, ok := parseLevel(ev.Detail)
			if !ok {
				add("event %d: unparseable escalation target %q", i, ev.Detail)
				continue
			}
			if to != level+1 {
				add("event %d: escalation %v -> %v skips rungs", i, level, to)
			}
			if to > recovery.LevelVanilla {
				add("event %d: escalation below the bottom rung (%v)", i, to)
			}
			level = to
			esc++
		case recovery.EvDeescalate:
			to, ok := parseLevel(ev.Detail)
			if !ok {
				add("event %d: unparseable de-escalation target %q", i, ev.Detail)
				continue
			}
			if to != level-1 {
				add("event %d: de-escalation %v -> %v skips rungs", i, level, to)
			}
			if to < o.Floor {
				add("event %d: de-escalation above the harness floor (%v < %v)", i, to, o.Floor)
			}
			level = to
			deesc++
		}
	}
	if esc != o.Stats.Escalations || deesc != o.Stats.Deescalations {
		add("event log records %d escalations / %d de-escalations, stats say %d / %d",
			esc, deesc, o.Stats.Escalations, o.Stats.Deescalations)
	}
	if level != o.FinalLevel {
		add("event walk ends at %v but harness reports %v", level, o.FinalLevel)
	}
	return v
}

// --- durability oracle ---

// durabilityOracle replays the trace against the recovery records and checks
// two storage invariants. Durability: a key whose write was acknowledged must
// stay readable across clean preserves — only a fallback recovery (which
// legitimately reboots from persistence or empty) may lose it. Staleness: a
// vanilla-rung restart boots with persistence off, so everything it serves
// must have been written after that boot; an effective read of a pre-crash
// key that was never re-written is a stale read — state that cannot exist
// leaked through recovery.
type durabilityOracle struct{}

func (durabilityOracle) Name() string { return "durability" }

func (durabilityOracle) Check(o *Observation) []string {
	var v []string
	acked := make(map[string]bool) // acked writes since the last non-clean recovery
	everAcked := make(map[string]bool)
	forbidden := make(map[string]bool) // keys that must not be readable after a vanilla boot
	ri := 0
	for _, st := range o.Steps {
		for ri < len(o.Recoveries) && o.Recoveries[ri].AtStep <= st.Index {
			rec := o.Recoveries[ri]
			ri++
			if rec.CleanPreserve {
				continue // preserved state: acked survives, forbidden persists
			}
			if rec.Level == "vanilla" {
				// Persistence is off at this rung: the successor boots empty,
				// so every previously acked key becomes unreadable-until-
				// rewritten.
				forbidden = make(map[string]bool)
				for k := range everAcked {
					forbidden[k] = true
				}
			} else {
				// Builtin/fallback recovery may legitimately restore any
				// persisted prefix, including pre-vanilla data.
				forbidden = make(map[string]bool)
			}
			acked = make(map[string]bool)
		}
		switch st.Op {
		case "INSERT", "UPDATE":
			if st.OK {
				acked[st.Key] = true
				everAcked[st.Key] = true
				delete(forbidden, st.Key)
			}
		case "DELETE":
			if st.OK {
				delete(acked, st.Key)
				delete(everAcked, st.Key)
				delete(forbidden, st.Key)
			}
		case "READ":
			if st.OK && !st.Effective && acked[st.Key] {
				v = append(v, fmt.Sprintf("step %d: acked write to %q lost across clean preserves", st.Index, st.Key))
			}
			if st.Effective && forbidden[st.Key] {
				v = append(v, fmt.Sprintf("step %d: stale read of %q after a vanilla-rung boot that never re-wrote it", st.Index, st.Key))
			}
		}
	}
	return v
}

// --- component oracle ---

// componentOracle judges the sub-process rungs. Its primary clause surfaces
// failures of the application's own VerifyComponents invariant — dangling
// state left across a component boundary after any recovery is exactly the
// bug microreboot literature warns about. The accounting clauses pin the
// rewind/microreboot counts to the configuration: no rewind without
// domains, no domain discard without domains, and no rewind that kept its
// domain.
type componentOracle struct{}

func (componentOracle) Name() string { return "component" }

func (componentOracle) Check(o *Observation) []string {
	var v []string
	add := func(format string, args ...interface{}) { v = append(v, fmt.Sprintf(format, args...)) }

	for _, m := range o.ComponentViolations {
		add("dangling component state after recovery: %s", m)
	}
	c := counterLookup(o.Counters, "", add)
	if !o.Domains {
		if o.Stats.Rewinds > 0 {
			add("%d rewind recoveries without rewind domains enabled", o.Stats.Rewinds)
		}
		if c("domain_discards") > 0 {
			add("%d domain discards without rewind domains enabled", c("domain_discards"))
		}
	}
	if c("domain_discards") < int64(o.Stats.Rewinds) {
		add("domain discards (%d) below rewind recoveries (%d): a rewind kept its domain", c("domain_discards"), o.Stats.Rewinds)
	}
	if o.Floor > recovery.LevelRewind && o.Stats.Rewinds > 0 {
		add("rewind recoveries (%d) with floor %v above the rewind rung", o.Stats.Rewinds, o.Floor)
	}
	if o.Floor > recovery.LevelMicroreboot && o.Stats.Microreboots > 0 {
		add("microreboots (%d) with floor %v above the microreboot rung", o.Stats.Microreboots, o.Floor)
	}
	return v
}

// ShardOracles returns the invariants for fabric schedules. One oracle
// carries the whole contract because every clause judges the same report.
func ShardOracles() []Oracle { return []Oracle{shardOracle{}} }

// --- shard oracle ---

// shardOracle judges a fabric run: ownership is single (no request is ever
// served by a node whose shard placement had already flipped), no
// acknowledged write is lost across a live migration, no response crosses a
// partition, the request and move ledgers balance, unavailability windows
// are well-formed, and per-node kernel counters stay internally consistent.
type shardOracle struct{}

func (shardOracle) Name() string { return "shard" }

func (shardOracle) Check(o *Observation) []string {
	var v []string
	add := func(format string, args ...interface{}) { v = append(v, fmt.Sprintf(format, args...)) }
	r := o.Shard
	if r == nil {
		return []string{"shard observation carries no report"}
	}
	if r.NonOwnerServes != 0 {
		add("%d requests served by a non-owner across ownership flips", r.NonOwnerServes)
	}
	if r.LostAcked != 0 {
		add("%d acknowledged writes lost across migration (keys %v)", r.LostAcked, r.LostKeys)
	}
	if r.PartitionResponses != 0 {
		add("%d responses crossed a partition", r.PartitionResponses)
	}
	if r.Served+r.Retried+r.Stale+r.Failed > r.Requests {
		add("request ledger overflows: served=%d retried=%d stale=%d failed=%d of %d",
			r.Served, r.Retried, r.Stale, r.Failed, r.Requests)
	}
	if r.AvailabilityPct < 0 || r.AvailabilityPct > 100 {
		add("availability %.2f%% outside [0,100]", r.AvailabilityPct)
	}
	if r.SnapshotStale != 0 {
		add("%d snapshot reads observed pages mutated under a frozen MVCC version", r.SnapshotStale)
	}
	nodes := r.Shards*r.Replicas + r.Spares
	for _, w := range r.Windows {
		if w.ServedUs < w.StartUs || w.ReadmitUs < w.ServedUs || w.EndUs < w.ReadmitUs || w.DurUs != w.EndUs-w.StartUs {
			add("malformed kill window on node %d: start %d, served %d, readmitted %d, end %d, dur %d",
				w.Node, w.StartUs, w.ServedUs, w.ReadmitUs, w.EndUs, w.DurUs)
		}
		if w.Node < 0 || w.Node >= nodes || w.Shard < 0 || w.Shard >= r.Shards {
			add("kill window names nonexistent slot: node %d shard %d", w.Node, w.Shard)
		}
	}
	if got := r.MovesCompleted + r.MovesAborted + r.MovesSkipped; got != len(r.MoveReports) {
		add("move ledger unbalanced: %d completed + %d aborted + %d skipped != %d moves",
			r.MovesCompleted, r.MovesAborted, r.MovesSkipped, len(r.MoveReports))
	}
	for _, m := range r.MoveReports {
		if m.Completed && (m.EndUs < m.FreezeUs || m.FreezeUs < m.StartUs) {
			add("move of shard %d has a time-travelling freeze: start=%d freeze=%d end=%d",
				m.Shard, m.StartUs, m.FreezeUs, m.EndUs)
		}
		if m.Completed && m.CutoverUs > m.FrozenUs {
			add("move of shard %d cut over for longer than it was frozen: cutover=%d frozen=%d",
				m.Shard, m.CutoverUs, m.FrozenUs)
		}
		if m.Completed && m.DstNode < 0 {
			add("completed move of shard %d has no destination", m.Shard)
		}
	}
	for _, nd := range r.Nodes {
		c := counterLookup(nd.Counters, fmt.Sprintf("node %d: ", nd.Node), add)
		if c("preserves_committed") > c("preserves_staged") {
			add("node %d: committed preserves (%d) exceed staged (%d)", nd.Node, c("preserves_committed"), c("preserves_staged"))
		}
		if c("checksum_mismatches") != int64(nd.IntegrityFallbacks) {
			add("node %d: checksum mismatches (%d) != integrity fallbacks (%d)", nd.Node, c("checksum_mismatches"), nd.IntegrityFallbacks)
		}
		if int64(nd.PhoenixRestarts) != c("preserves_committed") {
			add("node %d: phoenix restarts (%d) != committed preserves (%d)", nd.Node, nd.PhoenixRestarts, c("preserves_committed"))
		}
	}
	return v
}
