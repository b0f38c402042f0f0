package shard

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// NodeReport is one fabric node's accounting for the run.
type NodeReport struct {
	Node int `json:"node"`
	// Shard/Replica are the node's final owned slot (-1 for spares and
	// retired migration sources).
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Role    string `json:"role"`

	Accepted           int   `json:"accepted"`
	Refused            int   `json:"refused"`
	Kills              int   `json:"kills"`
	RecoveryUs         int64 `json:"recovery_us"`
	PhoenixRestarts    int   `json:"phoenix_restarts"`
	OtherRestarts      int   `json:"other_restarts"`
	IntegrityFallbacks int   `json:"integrity_fallbacks"`
	Checkpoints        int   `json:"checkpoints"`
	SnapshotReads      int   `json:"snapshot_reads"`
	SnapshotEffective  int   `json:"snapshot_effective"`
	SnapshotStale      int   `json:"snapshot_stale"`
	// Counters is the node machine's recovery-counter snapshot (JSON maps
	// marshal with sorted keys, so the export is deterministic).
	Counters map[string]int64 `json:"counters"`
}

// WindowReport is one per-replica kill unavailability window: from the kill
// (StartUs) until the node's first effective read after it reaches the
// router (EndUs). ServedUs is when the node served again and ReadmitUs when
// the router readmitted it (the first ack of the node's newest kill epoch
// landed), so the window splits into recovery, readmission and first read
// (WindowReport.Split). Rung names the recovery the kill took, read from the
// harness counters; a second kill inside the window appends its own
// ("phoenix+fallback") and restarts the split. A window still open at run
// end ends there, as do its unreached ServedUs and ReadmitUs.
type WindowReport struct {
	Shard     int    `json:"shard"`
	Replica   int    `json:"replica"`
	Node      int    `json:"node"`
	StartUs   int64  `json:"start_us"`
	ServedUs  int64  `json:"served_us"`
	ReadmitUs int64  `json:"readmit_us"`
	EndUs     int64  `json:"end_us"`
	DurUs     int64  `json:"dur_us"`
	Rung      string `json:"rung"`
	Closed    bool   `json:"closed"`
}

// Split returns the window's recovery (kill until the node serves again),
// readmission (until the router readmits it) and first read (the rest of
// DurUs).
func (w WindowReport) Split() (recoveryUs, readmitUs, firstReadUs int64) {
	recoveryUs = w.ServedUs - w.StartUs
	readmitUs = w.ReadmitUs - w.ServedUs
	return recoveryUs, readmitUs, w.DurUs - recoveryUs - readmitUs
}

// RoundReport is one migration delta round.
type RoundReport struct {
	Scanned int   `json:"scanned"`
	Hashed  int   `json:"hashed"`
	Shipped int   `json:"shipped"`
	CostUs  int64 `json:"cost_us"`
}

// MoveReport is one shard move (live migration or the non-PHOENIX
// stop-and-copy degradation).
type MoveReport struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Reason  string `json:"reason"`
	SrcNode int    `json:"src_node"`
	DstNode int    `json:"dst_node"`

	// Rounds are the background delta rounds (empty for stop-and-copy);
	// Pages is the tracked page count at cutover; ShippedPages the total
	// transfer volume; FinalDelta the pages shipped inside the frozen
	// cutover — the quantity the cutover window scales with.
	Rounds       []RoundReport `json:"rounds,omitempty"`
	Pages        int           `json:"pages"`
	ShippedPages int           `json:"shipped_pages"`
	FinalDelta   int           `json:"final_delta"`

	StartUs int64 `json:"start_us"`
	// FreezeUs..EndUs is the shard's frozen window (the migration's
	// contribution to unavailability); CutoverUs is its drain-free tail —
	// final ship, successor install, adopting boot — the part whose cost is
	// a pure function of what still had to move.
	FreezeUs   int64  `json:"freeze_us"`
	EndUs      int64  `json:"end_us"`
	FrozenUs   int64  `json:"frozen_us"`
	CutoverUs  int64  `json:"cutover_us"`
	Completed  bool   `json:"completed"`
	Aborted    bool   `json:"aborted"`
	Skipped    bool   `json:"skipped"`
	SkipReason string `json:"skip_reason,omitempty"`
}

// Report is the availability-under-traffic result of one sharded run.
// Field order is fixed and durations are µs integers, so json.Marshal of
// equal runs yields byte-identical output.
type Report struct {
	System   string `json:"system"`
	Mode     string `json:"mode"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	Spares   int    `json:"spares"`
	Vnodes   int    `json:"vnodes_per_shard"`

	Population int64 `json:"population"`
	RingGen    int   `json:"ring_gen"`

	Requests int `json:"requests"`
	Served   int `json:"served"`
	Retried  int `json:"retried"`
	Stale    int `json:"stale"`
	Failed   int `json:"failed"`
	// AvailabilityPct is effective requests (served + retried) over total.
	AvailabilityPct float64 `json:"availability_pct"`

	P50Us  int64 `json:"p50_us"`
	P99Us  int64 `json:"p99_us"`
	P999Us int64 `json:"p999_us"`

	Kills          int            `json:"kills"`
	UnavailTotalUs int64          `json:"unavail_total_us"`
	Unrecovered    int            `json:"unrecovered"`
	Windows        []WindowReport `json:"windows"`

	Moves            int          `json:"moves"`
	RingChanges      int          `json:"ring_changes"`
	MovesCompleted   int          `json:"moves_completed"`
	MovesAborted     int          `json:"moves_aborted"`
	MovesSkipped     int          `json:"moves_skipped"`
	MigrateFrozenUs  int64        `json:"migrate_frozen_us"`
	MigrateCutoverUs int64        `json:"migrate_cutover_us"`
	MoveReports      []MoveReport `json:"move_reports"`

	NonOwnerServes int      `json:"non_owner_serves"`
	AckedWrites    int      `json:"acked_writes"`
	LedgerChecked  int      `json:"ledger_checked"`
	LostAcked      int      `json:"lost_acked"`
	LostKeys       []string `json:"lost_keys,omitempty"`
	// DrainRefusals counts the reads draining replicas refused.
	// PartitionResponses is an oracle: non-refused responses that reached
	// the router from a partitioned node. It must stay zero.
	DrainRefusals      int `json:"drain_refusals"`
	PartitionResponses int `json:"partition_responses"`

	// Snapshot-read accounting (scheduled concurrent-read batches off MVCC
	// versions). SnapshotStale is an oracle: it must stay zero.
	SnapshotReads     int `json:"snapshot_reads"`
	SnapshotEffective int `json:"snapshot_effective"`
	SnapshotStale     int `json:"snapshot_stale"`

	NetSent           int `json:"net_sent"`
	NetDelivered      int `json:"net_delivered"`
	NetDropped        int `json:"net_dropped"`
	NetDuplicated     int `json:"net_duplicated"`
	NetPartitionDrops int `json:"net_partition_drops"`
	NetInjectedDrops  int `json:"net_injected_drops"`

	Nodes []NodeReport `json:"nodes"`
}

// JSON renders the report as deterministic JSON.
func (r Report) JSON() ([]byte, error) { return json.Marshal(r) }

func (r Report) String() string {
	return fmt.Sprintf("%s/%s: avail=%.2f%% (served=%d retried=%d stale=%d failed=%d of %d) p50=%dµs p99=%dµs p999=%dµs kills=%d moves=%d/%d unavail=%dµs frozen=%dµs cutover=%dµs nonowner=%d lost=%d",
		r.System, r.Mode, r.AvailabilityPct, r.Served, r.Retried, r.Stale, r.Failed, r.Requests,
		r.P50Us, r.P99Us, r.P999Us, r.Kills, r.MovesCompleted, r.Moves+r.RingChanges,
		r.UnavailTotalUs, r.MigrateFrozenUs, r.MigrateCutoverUs, r.NonOwnerServes, r.LostAcked)
}

func percentile(sorted []time.Duration, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx].Microseconds()
}

func (f *Fabric) report(sched Schedule) Report {
	end := f.cfg.Profile.RunFor + f.cfg.Profile.settle()
	rep := Report{
		System:   f.cfg.System,
		Mode:     f.cfg.Recovery.Mode.String(),
		Seed:     f.cfg.Seed,
		Shards:   f.cfg.Shards,
		Replicas: f.cfg.Replicas,
		Spares:   f.cfg.Spares,
		Vnodes:   vnodesPerShard,

		Population: f.cfg.Profile.Population,
		RingGen:    f.ringGen,

		Requests: f.totalRequests,
		Served:   f.served,
		Retried:  f.retried,
		Stale:    f.stale,
		Failed:   f.failed,

		Kills:       len(sched.Kills),
		Moves:       len(sched.Moves),
		RingChanges: len(sched.RingChanges),

		NonOwnerServes: f.router.nonOwnerServes,
		AckedWrites:    len(f.acked),
		LedgerChecked:  f.ledgerChecked,
		LostAcked:      f.lostAcked,
		LostKeys:       f.lostKeys,

		PartitionResponses: f.router.partitionResponses,

		NetSent:           f.net.Stat.Sent,
		NetDelivered:      f.net.Stat.Delivered,
		NetDropped:        f.net.Stat.Dropped,
		NetDuplicated:     f.net.Stat.Duplicated,
		NetPartitionDrops: f.net.Stat.PartitionDrops,
		NetInjectedDrops:  f.net.Stat.InjectedDrops,
	}
	if rep.Requests > 0 {
		rep.AvailabilityPct = 100 * float64(rep.Served+rep.Retried) / float64(rep.Requests)
	}

	sort.Slice(f.latencies, func(i, j int) bool { return f.latencies[i] < f.latencies[j] })
	rep.P50Us = percentile(f.latencies, 0.50)
	rep.P99Us = percentile(f.latencies, 0.99)
	rep.P999Us = percentile(f.latencies, 0.999)

	for _, w := range f.windows {
		if !w.closed {
			w.end = end
			rep.Unrecovered++
		}
		if w.servedAt < 0 {
			w.servedAt = w.end
		}
		if w.readmitAt < 0 {
			w.readmitAt = w.end
		}
		wr := WindowReport{
			Shard: w.shard, Replica: w.replica, Node: w.node,
			StartUs:   w.start.Microseconds(),
			ServedUs:  w.servedAt.Microseconds(),
			ReadmitUs: w.readmitAt.Microseconds(),
			EndUs:     w.end.Microseconds(),
			DurUs:     (w.end - w.start).Microseconds(),
			Rung:      strings.Join(w.rungs, "+"),
			Closed:    w.closed,
		}
		rep.UnavailTotalUs += wr.DurUs
		rep.Windows = append(rep.Windows, wr)
	}

	for _, m := range f.migrations {
		mr := MoveReport{
			Shard: m.shard, Replica: m.replica, Reason: m.reason,
			SrcNode: m.srcNode, DstNode: m.dstNode,
			Pages: m.pages, ShippedPages: 0, FinalDelta: m.finalDelta,
			StartUs:    m.startAt.Microseconds(),
			Completed:  m.finished,
			Aborted:    m.aborted,
			Skipped:    m.skipped,
			SkipReason: m.skipReason,
		}
		if m.mig != nil {
			mr.ShippedPages = m.mig.ShippedPages()
		}
		for _, rr := range m.rounds {
			mr.Rounds = append(mr.Rounds, RoundReport{rr.scanned, rr.hashed, rr.shipped, rr.cost.Microseconds()})
		}
		if m.freezeAt > 0 || m.finished {
			mr.FreezeUs = m.freezeAt.Microseconds()
			mr.EndUs = m.endAt.Microseconds()
			if m.finished {
				mr.FrozenUs = (m.endAt - m.freezeAt).Microseconds()
				mr.CutoverUs = (m.endAt - m.cutoverAt).Microseconds()
				rep.MigrateFrozenUs += mr.FrozenUs
				rep.MigrateCutoverUs += mr.CutoverUs
			}
		}
		switch {
		case m.finished:
			rep.MovesCompleted++
		case m.skipped:
			rep.MovesSkipped++
		case m.aborted:
			rep.MovesAborted++
		}
		rep.MoveReports = append(rep.MoveReports, mr)
	}

	for _, nd := range f.nodes {
		rep.DrainRefusals += nd.drainRefusals
		rep.SnapshotReads += nd.snapshotReads
		rep.SnapshotEffective += nd.snapshotEffective
		rep.SnapshotStale += nd.snapshotStale
		rep.Nodes = append(rep.Nodes, NodeReport{
			Node: nd.idx, Shard: nd.shard, Replica: nd.replica, Role: nd.state.String(),
			Accepted:           nd.accepted,
			Refused:            nd.refused,
			Kills:              nd.kills,
			RecoveryUs:         nd.recoveryTotal.Microseconds(),
			PhoenixRestarts:    nd.h.Stat.PhoenixRestarts,
			OtherRestarts:      nd.h.Stat.OtherRestarts,
			IntegrityFallbacks: nd.h.Stat.IntegrityFallbacks,
			Checkpoints:        nd.h.Stat.CheckpointsTaken,
			SnapshotReads:      nd.snapshotReads,
			SnapshotEffective:  nd.snapshotEffective,
			SnapshotStale:      nd.snapshotStale,
			Counters:           nd.h.M.Counters.Snapshot(),
		})
	}
	return rep
}
