// Package shard is the serving fabric: a consistent-hash key ring over
// per-shard replica groups of recovery harnesses, fronted by a shard-aware
// router, driven by an open-loop client population over a netsim fabric. A
// replicated cluster is the fabric's one-shard shape: one replica group, no
// spares.
//
// The piece that makes it more than "many clusters side by side" is live
// shard migration: moving a shard to another node transfers its preserved
// pages through the same PreserveExec/dirty-page machinery a PHOENIX
// restart uses (kernel.Migration), in background delta rounds that converge
// to the write rate, followed by a brief frozen cutover whose cost scales
// with the final dirty delta — not the shard size. Non-PHOENIX modes move
// the same shard by stop-and-copy (freeze first, ship everything), which is
// what the campaign's migration-window comparison measures.
//
// Determinism: every run is a pure function of its seed. All timing flows
// through one simclock; node machines are stopwatches whose serve and
// recovery costs are mirrored onto the fabric clock; arrivals come from a
// seeded open-loop process; reports marshal with fixed field order and
// sorted keys, so same-seed runs are byte-identical.
package shard

import (
	"fmt"
	"time"

	"phoenix/internal/faultinject"
	"phoenix/internal/netsim"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

const routerID = netsim.NodeID("router")
const feID = netsim.NodeID("fe")

// The fabric's fixed shape. Each shard owns vnodesPerShard points on the key
// ring. The router probes every node each probeInterval and holds a node
// whose acks stop for longer than probeStale unhealthy. A live migration
// runs background delta rounds migrationRoundGap apart, so live traffic
// re-dirties pages between them, and begins its cutover freeze once a round
// after the first ships at most migrationConvergePages pages, or after
// migrationMaxRounds rounds. A message crosses any link in linkLatency plus
// a uniform jitter below linkJitter.
const (
	vnodesPerShard         = 16
	probeInterval          = 2 * time.Millisecond
	probeStale             = 5 * time.Millisecond
	migrationRoundGap      = time.Millisecond
	migrationMaxRounds     = 12
	migrationConvergePages = 4
	linkLatency            = 100 * time.Microsecond
	linkJitter             = 50 * time.Microsecond
)

func nodeID(i int) netsim.NodeID { return netsim.NodeID(fmt.Sprintf("node%d", i)) }

// Profile shapes the client population and traffic window.
type Profile struct {
	// Proto is the request-stream template; the frontend clones it with a
	// run-derived seed.
	Proto workload.Generator
	// Warm pre-populates the dataset before traffic: each shard's replicas
	// receive exactly the warm requests whose keys the ring maps to that
	// shard.
	Warm []*workload.Request

	// ArrivalMean is the open-loop mean inter-arrival time (default 50µs).
	ArrivalMean time.Duration
	// Population is the logical client count arrivals are attributed to
	// (default 1e6 — "millions of simulated clients" costs one int64).
	Population int64

	// Timeout bounds one attempt (default 8ms); MaxRetries bounds attempts
	// (default 3); RetryDelay spaces refusal retries (default 1ms);
	// HedgeDelay, when positive, duplicates a slow read to the next replica
	// of the same shard (hedging never leaves the shard's replica group).
	Timeout    time.Duration
	MaxRetries int
	RetryDelay time.Duration
	HedgeDelay time.Duration

	// RunFor is the arrival window (default 300ms). The run goes on after
	// it until in-flight work drains (see settle).
	RunFor time.Duration
	// CheckpointInterval is the per-node harness checkpoint cadence.
	CheckpointInterval time.Duration
}

func (p *Profile) fill() {
	if p.ArrivalMean <= 0 {
		p.ArrivalMean = 50 * time.Microsecond
	}
	if p.Population < 1 {
		p.Population = 1_000_000
	}
	if p.Timeout <= 0 {
		p.Timeout = 8 * time.Millisecond
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.RetryDelay <= 0 {
		p.RetryDelay = time.Millisecond
	}
	if p.RunFor <= 0 {
		p.RunFor = 300 * time.Millisecond
	}
	if p.CheckpointInterval <= 0 {
		p.CheckpointInterval = 2 * time.Millisecond
	}
}

// settle is how long the fabric keeps running after the arrival window: time
// for the last request's every attempt to time out and retry, plus 20ms.
func (p *Profile) settle() time.Duration {
	return time.Duration(p.MaxRetries+1)*(p.Timeout+p.RetryDelay) + 20*time.Millisecond
}

// Config parameterises one fabric run.
type Config struct {
	// System names the application (report labelling only).
	System string
	// Shards is the shard count (default 4); Replicas the replica-group
	// size per shard (default 2); Spares the pool of cold standby nodes
	// migrations move into (0 is valid — every move is then skipped as
	// "no spare available"). Total node count is Shards*Replicas+Spares.
	Shards   int
	Replicas int
	Spares   int
	// Seed drives every derived seed: ring placement, node machines, the
	// arrival process, and the request stream.
	Seed int64
	// Recovery is the per-node harness configuration (the mode under test).
	Recovery recovery.Config
	// Profile shapes the client population.
	Profile Profile
	// Inj, when non-nil, is the network-level injector.
	Inj *faultinject.Injector
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Spares < 0 {
		c.Spares = 0
	}
	c.Profile.fill()
}

// Kill crashes one shard replica (resolved to whichever node owns it when
// the kill fires, so a kill after a completed move hits the new owner).
type Kill struct {
	At      time.Duration
	Shard   int
	Replica int
}

// Move live-migrates one shard replica to the next free spare node.
type Move struct {
	At      time.Duration
	Shard   int
	Replica int
}

// RingChange is a placement-ring change: the shard's primary replica
// relocates to a spare (funnelled through the same migration machinery) and
// the shard's read affinity rotates to the next slot.
type RingChange struct {
	At    time.Duration
	Shard int
}

// SnapshotRead schedules one concurrent-read batch against a shard replica:
// the owning node commits an MVCC snapshot of its live state and serves
// Count reads (default 16) off the frozen version at Readers fan-out
// (default 1). Like kills, the slot is resolved to whichever node owns it
// when the batch fires, so a batch after a completed move lands on the new
// owner.
type SnapshotRead struct {
	At      time.Duration
	Shard   int
	Replica int
	Count   int
	Readers int
}

// Window is a [From, To) interval applied to one shard replica, resolved
// to whichever node owns the slot when the window opens.
type Window struct {
	From, To time.Duration
	Shard    int
	Replica  int
}

// Schedule is the fault-and-rebalance script one run executes; the same
// schedule replays against every recovery mode under comparison.
//
// A drain takes its replica out of the read rotation: it stops acking
// probes and refuses every read, but keeps applying fanned-out writes. A
// partition cuts its replica's node off from the router, the frontend and
// every other node. A write to that replica group cannot collect every ack,
// so the group's writes fail for the whole window. Run rejects partitions
// together with moves or ring changes: a dispatch the partition drops would
// hold a frozen shard forever.
type Schedule struct {
	Kills         []Kill
	Moves         []Move
	RingChanges   []RingChange
	SnapshotReads []SnapshotRead
	Drains        []Window
	Partitions    []Window
}

// DefaultSchedule is the campaigns' one schedule builder. Kill i, at 25% and
// 50% of the traffic window, hits slot (i mod shards, ⌊i/shards⌋ mod
// replicas); the second kill is scheduled only when it lands on another
// slot, since a second kill inside the PHOENIX grace window measures the
// fallback path instead. With spares, a shard's secondary live-moves at 35%
// and a ring change relocates a primary at 65%. With more than two
// replicas, the last replica of shard 0 drains over 55–70% and is
// partitioned over 78–90%; Run rejects that partition beside moves, so a
// shape with both spares and more than two replicas needs its own schedule.
func DefaultSchedule(p Profile, shards, replicas, spares int) Schedule {
	d := p.RunFor
	var s Schedule
	for i, at := range []time.Duration{d / 4, d / 2} {
		if i < shards*replicas {
			s.Kills = append(s.Kills, Kill{At: at, Shard: i % shards, Replica: i / shards % replicas})
		}
	}
	if spares > 0 {
		mv := Move{At: d * 35 / 100, Shard: 2 % shards}
		if replicas > 1 {
			mv.Replica = 1
		}
		s.Moves = []Move{mv}
		s.RingChanges = []RingChange{{At: d * 65 / 100, Shard: 3 % shards}}
	}
	if last := replicas - 1; replicas > 2 {
		s.Drains = []Window{{From: d * 55 / 100, To: d * 70 / 100, Replica: last}}
		s.Partitions = []Window{{From: d * 78 / 100, To: d * 90 / 100, Replica: last}}
	}
	return s
}

// --- message envelopes (netsim payloads) ---

// reqEnv travels frontend → router: one client attempt.
type reqEnv struct {
	Client  int64
	RID     uint64
	Attempt int
	Req     *workload.Request
}

// dispatchEnv travels router → node: one routed attempt, stamped with the
// shard's ownership epoch at dispatch and the write fan-out width.
type dispatchEnv struct {
	Client  int64
	RID     uint64
	Attempt int
	Req     *workload.Request
	Shard   int
	Epoch   int
	// Fan is the replica-group width this write fanned out to (0 for the
	// single-destination read path).
	Fan int
}

// respEnv travels node → router.
type respEnv struct {
	Client  int64
	RID     uint64
	Attempt int
	Shard   int
	Node    int
	// Epoch echoes the dispatch-time ownership epoch: the router's
	// non-owner oracle checks it against the shard's current epoch.
	Epoch int
	// KillEpoch is the node's kill count at dispatch; a kill window only
	// closes on a response computed after the kill that opened it.
	KillEpoch int
	Ok        bool
	Effective bool
	Refused   bool
	Op        workload.Op
	Fan       int
}

// clientRespEnv travels router → frontend: the aggregated outcome of one
// attempt (writes collapse their fan-out into one answer).
type clientRespEnv struct {
	Client    int64
	RID       uint64
	Attempt   int
	Effective bool
	Refused   bool
}

type probeEnv struct{}

// ackEnv travels node → router: a probe ack, or the up notice a node sends
// unasked when it serves again. Epoch is the node's kill count.
type ackEnv struct{ Node, Epoch int }

// downEnv travels node → router: the down notice a killed node's host sends
// before recovery starts, carrying the node's kill count after the kill.
type downEnv struct{ Node, Epoch int }
