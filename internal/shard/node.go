package shard

import (
	"fmt"
	"strings"
	"time"

	"phoenix/internal/netsim"
	"phoenix/internal/recovery"
	"phoenix/internal/simclock"
)

type nodeState int

const (
	// stateSpare is a cold standby: machine and harness constructed, app
	// never booted — the only state AdoptPreserved accepts, so spares are
	// the only legal migration destinations.
	stateSpare nodeState = iota
	stateServing
	// stateDraining is out of the read rotation: no probe acks, every read
	// refused, fanned-out writes still applied.
	stateDraining
	stateDown
	// stateRetired is a migration source after cutover: its process is
	// dead (single-owner invariant) and it serves nothing ever again.
	stateRetired
)

func (s nodeState) String() string {
	switch s {
	case stateSpare:
		return "spare"
	case stateServing:
		return "serving"
	case stateDraining:
		return "draining"
	case stateDown:
		return "down"
	case stateRetired:
		return "retired"
	}
	return "?"
}

// node is one fabric member: a recovery harness over an application
// instance, serving one request at a time from a FIFO queue. Active nodes
// own exactly one shard replica; spares own nothing until a migration
// lands on them. The harness's machine clock is the node's stopwatch; the
// fabric clock orders its interactions with the world.
type node struct {
	f   *Fabric
	idx int
	id  netsim.NodeID
	h   *recovery.Harness

	state   nodeState
	shard   int // -1 while spare/retired
	replica int

	queue      []dispatchEnv
	busy       bool
	completion *simclock.Timer

	// accounting
	accepted          int
	refused           int
	drainRefusals     int
	kills             int
	recoveryTotal     time.Duration
	snapshotReads     int
	snapshotEffective int
	snapshotStale     int
}

func (nd *node) handle(m netsim.Message) {
	switch env := m.Payload.(type) {
	case dispatchEnv:
		nd.onRequest(env)
	case probeEnv:
		// Only a serving owner acks; spares, retired, draining and down
		// nodes go dark so the router routes reads around them.
		if nd.state == stateServing {
			nd.ack()
		}
	}
}

// ack answers a probe. Sent unasked when the node serves again (after a
// recovery, a cutover that made it an owner, or a drain), it is the up
// notice: the router readmits the node when it lands.
func (nd *node) ack() {
	nd.f.net.Send(nd.id, routerID, ackEnv{Node: nd.idx, Epoch: nd.kills})
}

func (nd *node) respond(env dispatchEnv, ok, eff, refused bool) respEnv {
	return respEnv{
		Client: env.Client, RID: env.RID, Attempt: env.Attempt,
		Shard: env.Shard, Node: nd.idx, Epoch: env.Epoch, KillEpoch: nd.kills,
		Ok: ok, Effective: eff, Refused: refused, Op: env.Req.Op, Fan: env.Fan,
	}
}

func (nd *node) onRequest(env dispatchEnv) {
	if nd.state == stateServing || (nd.state == stateDraining && isWrite(env.Req.Op)) {
		nd.accepted++
		nd.queue = append(nd.queue, env)
		nd.startNext()
		return
	}
	nd.refuse(env)
}

// refuse answers a dispatch the node will not serve with a fast, explicit
// refusal the client retries; a draining node counts it against the drain.
func (nd *node) refuse(env dispatchEnv) {
	nd.refused++
	if nd.state == stateDraining {
		nd.drainRefusals++
	}
	nd.f.net.Send(nd.id, routerID, nd.respond(env, false, false, true))
}

// startNext dispatches the queue head: the harness computes the outcome and
// service duration on the node's machine clock, and the response lands that
// far in the fabric's future (single-server queueing). A draining node
// holds only writes, so starting a read there fails the run.
func (nd *node) startNext() {
	if nd.busy || (nd.state != stateServing && nd.state != stateDraining) || len(nd.queue) == 0 {
		return
	}
	env := nd.queue[0]
	if nd.state == stateDraining && !isWrite(env.Req.Op) {
		nd.f.fail(fmt.Errorf("shard: node %d started a read while draining", nd.idx))
		return
	}
	nd.queue = nd.queue[1:]
	nd.busy = true

	nd.syncClock()
	before := nd.h.M.Clock.Now()
	ok, eff, err := nd.h.ServeRequest(env.Req)
	if err != nil {
		nd.f.fail(fmt.Errorf("shard: node %d serve: %w", nd.idx, err))
		return
	}
	dur := nd.h.M.Clock.Now() - before
	resp := nd.respond(env, ok, eff, false)
	nd.completion = nd.f.clk.AfterFunc(dur, func() {
		nd.busy = false
		nd.completion = nil
		nd.f.net.Send(nd.id, routerID, resp)
		nd.startNext()
	})
}

// syncClock pulls the machine clock forward to fabric time (never backward).
func (nd *node) syncClock() {
	if now := nd.f.clk.Now(); now > nd.h.M.Clock.Now() {
		nd.h.M.Clock.AdvanceTo(now)
	}
}

// kill crashes the node's process at fabric time and drives the harness's
// real recovery path; the node is down for exactly the simulated recovery
// duration. A migration sourcing from this node aborts first — its buffered
// baseline dies with the process. The host sends the router a down notice
// before recovery starts, and the node sends an up notice when it serves
// again. A kill that finds the node anywhere but serving (recovering,
// draining or retired) is a no-op.
func (nd *node) kill() {
	if nd.state != stateServing {
		return
	}
	nd.f.abortMigrationsFrom(nd.idx, "source killed")
	nd.state = stateDown
	nd.kills++
	nd.f.net.Send(nd.id, routerID, downEnv{Node: nd.idx, Epoch: nd.kills})
	// Queued requests and the in-flight one vanish with the process and
	// will never produce responses; the router's in-flight ledger must
	// forget them or a frozen shard would never drain. (Requests still on
	// the wire do get refused by the down node, so they drain normally.)
	lost := len(nd.queue)
	if nd.completion != nil {
		nd.f.clk.Stop(nd.completion)
		nd.completion = nil
		lost++
	}
	nd.busy = false
	nd.f.router.forgetInflight(nd.idx, lost)
	nd.queue = nil

	w := nd.f.openKillWindow(nd)

	nd.syncClock()
	before := nd.h.M.Clock.Now()
	ci := nd.h.Proc().Run(func() { nd.h.Proc().AS.ReadU64(crashVA) })
	if ci == nil {
		nd.f.fail(fmt.Errorf("shard: node %d synthetic crash did not register", nd.idx))
		return
	}
	stat := nd.h.Stat
	if err := nd.h.HandleFailureForREPL(ci); err != nil {
		nd.f.fail(fmt.Errorf("shard: node %d recovery: %w", nd.idx, err))
		return
	}
	w.rungs = append(w.rungs, rungOf(stat, nd.h.Stat, nd.h.Cfg.Mode))
	rec := nd.h.M.Clock.Now() - before
	nd.recoveryTotal += rec
	nd.f.clk.AfterFunc(rec, func() {
		if nd.state == stateDown {
			nd.state = stateServing
			w.servedAt = nd.f.clk.Now()
			nd.ack()
			nd.startNext()
		}
	})
}

// rungOf names the recovery a kill took from the harness counters it moved:
// a sub-process rung, a PHOENIX restart, a PHOENIX fallback to the default
// recovery, or the mode's own restart (builtin, vanilla, criu).
func rungOf(before, after recovery.Stats, mode recovery.Mode) string {
	fallbacks := func(s recovery.Stats) int {
		return s.UnsafeFallbacks + s.GraceFallbacks + s.CrossFallbacks + s.RecoveryFaultFallbacks + s.IntegrityFallbacks
	}
	switch {
	case after.Rewinds > before.Rewinds:
		return "rewind"
	case after.Microreboots > before.Microreboots:
		return "microreboot"
	case after.PhoenixRestarts > before.PhoenixRestarts:
		return "phoenix"
	case fallbacks(after) > fallbacks(before):
		return "fallback"
	}
	return strings.ToLower(mode.String())
}

// snapshotRead executes one scheduled concurrent-read batch: commit an MVCC
// snapshot of the node's live state and serve count reads off it at the
// given fan-out. Only a serving owner runs the batch — spares and retired
// sources own no state, and a down node has none to freeze. Apps without
// snapshot support skip silently so mixed-system schedules stay replayable.
func (nd *node) snapshotRead(count, readers int) {
	if nd.state != stateServing {
		return
	}
	if _, ok := nd.h.App.(recovery.SnapshotServer); !ok {
		return
	}
	if count <= 0 {
		count = 16
	}
	if readers <= 0 {
		readers = 1
	}
	nd.syncClock()
	eff, stale, err := nd.h.SnapshotReadBatch(count, readers)
	if err != nil {
		nd.f.fail(fmt.Errorf("shard: node %d snapshot read: %w", nd.idx, err))
		return
	}
	nd.snapshotReads++
	nd.snapshotEffective += eff
	nd.snapshotStale += stale
}

// retire marks a migration source dead-for-good after its cutover. Any
// requests still queued were dispatched pre-freeze and already drained by
// construction; the guard keeps the invariant visible.
func (nd *node) retire() {
	nd.state = stateRetired
	nd.shard, nd.replica = -1, 0
	if len(nd.queue) != 0 {
		nd.f.fail(fmt.Errorf("shard: node %d retired with %d queued requests", nd.idx, len(nd.queue)))
	}
}

// drainStart takes a serving node out of the read rotation: the in-flight
// request finishes, queued reads are refused, queued and arriving writes
// still apply, and probes go unanswered so the router reads around it.
func (nd *node) drainStart() {
	if nd.state != stateServing {
		return
	}
	nd.state = stateDraining
	var writes []dispatchEnv
	for _, env := range nd.queue {
		if isWrite(env.Req.Op) {
			writes = append(writes, env)
		} else {
			nd.refuse(env)
		}
	}
	nd.queue = writes
}

func (nd *node) drainEnd() {
	if nd.state != stateDraining {
		return
	}
	nd.state = stateServing
	nd.ack()
	nd.startNext()
}
