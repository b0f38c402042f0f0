package shard

import (
	"fmt"
	"sort"
	"time"

	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/netsim"
	"phoenix/internal/recovery"
	"phoenix/internal/simclock"
	"phoenix/internal/workload"
)

// Fabric is one live sharded run.
type Fabric struct {
	cfg    Config
	clk    *simclock.Clock
	net    *netsim.Network
	router *router
	fe     *frontend
	nodes  []*node

	// spares is the pool of free standby node indexes migrations draw
	// from; an aborted migration returns its untouched destination.
	spares []int

	deadline time.Duration

	// request outcome accounting.
	totalRequests int
	served        int
	retried       int
	stale         int
	failed        int
	latencies     []time.Duration // every finished request's, failed ones too

	windows []*windowRec
	openW   []*windowRec // per-node open kill window

	// partitioned is the node a partition currently isolates (-1 = none).
	partitioned int

	migrations  []*migration
	activeShard map[int]*migration
	activeSrc   map[int]*migration

	// acked is the acknowledged-write ledger: key → present. The lost-write
	// oracle audits it against the live dataset after the run.
	acked      map[string]bool
	migrated   []bool
	shardKills []int
	ringGen    int

	lostAcked     int
	lostKeys      []string
	ledgerChecked int

	firstErr error
}

// windowRec is one per-replica kill window: kill time until the killed
// node's first effective read reaches the router. servedAt (the node serves
// again) and readmitAt (the router readmits it) split it into recovery,
// readmission and first read; both are -1 until they happen, and a second
// kill inside the window restarts the split at its epoch.
type windowRec struct {
	shard, replica, node int
	// killEpoch is the kill count at the kill that opened the window,
	// epoch the count at the newest kill inside it.
	killEpoch, epoch    int
	start, end          time.Duration
	servedAt, readmitAt time.Duration
	// rungs names each kill's recovery, in order.
	rungs  []string
	closed bool
}

func (f *Fabric) fail(err error) {
	if f.firstErr == nil {
		f.firstErr = err
	}
}

func (f *Fabric) phoenixMode() bool { return f.cfg.Recovery.Mode == recovery.ModePhoenix }

// Run executes one sharded fabric under one recovery configuration against
// the schedule and returns its report.
func Run(cfg Config, mk recovery.AppFactory, sched Schedule) (Report, error) {
	f, err := newFabric(cfg, mk, sched)
	if err != nil {
		return Report{}, err
	}
	return f.run(sched)
}

// newFabric boots and warms the fabric's nodes and puts the probes, the
// arrivals and the schedule on its clock, without advancing it.
func newFabric(cfg Config, mk recovery.AppFactory, sched Schedule) (*Fabric, error) {
	cfg.fill()
	if len(sched.Partitions) > 0 && len(sched.Moves)+len(sched.RingChanges) > 0 {
		return nil, fmt.Errorf("shard: a schedule with partitions cannot also move shards: a dropped dispatch would hold the frozen shard forever")
	}
	clk := simclock.New()
	f := &Fabric{
		cfg:         cfg,
		clk:         clk,
		net:         netsim.New(clk, netsim.LinkConfig{Latency: linkLatency, Jitter: linkJitter}, cfg.Seed, cfg.Inj),
		deadline:    cfg.Profile.RunFor,
		activeShard: make(map[int]*migration),
		activeSrc:   make(map[int]*migration),
		acked:       make(map[string]bool),
		migrated:    make([]bool, cfg.Shards),
		shardKills:  make([]int, cfg.Shards),
		partitioned: -1,
	}
	f.router = newRouter(f)
	f.openW = make([]*windowRec, cfg.Shards*cfg.Replicas+cfg.Spares)

	// Pre-split the warm set so each shard's replicas hold exactly their
	// arc of the keyspace.
	warmByShard := make([][]*workload.Request, cfg.Shards)
	for _, wr := range cfg.Profile.Warm {
		s := f.router.ring.KeyShard(wr.Key)
		warmByShard[s] = append(warmByShard[s], wr)
	}

	// Active nodes: shard s replica r at index s*R+r, each with its own
	// machine (stopwatch clock) and injector.
	total := cfg.Shards*cfg.Replicas + cfg.Spares
	for i := 0; i < total; i++ {
		m := kernel.NewMachine(cfg.Seed*7919 + int64(i) + 1)
		inj := faultinject.New()
		app, gen := mk(inj)
		h := recovery.NewHarness(m, cfg.Recovery, app, gen, inj)
		nd := &node{f: f, idx: i, id: nodeID(i), h: h, shard: -1}
		if i < cfg.Shards*cfg.Replicas {
			nd.shard = i / cfg.Replicas
			nd.replica = i % cfg.Replicas
			if err := h.Boot(); err != nil {
				return nil, fmt.Errorf("shard: node %d boot: %w", i, err)
			}
			for _, wr := range warmByShard[nd.shard] {
				if _, _, err := h.ServeRequest(wr); err != nil {
					return nil, fmt.Errorf("shard: node %d warm: %w", i, err)
				}
			}
			nd.state = stateServing
		} else {
			// Spares stay cold: an un-booted harness is the only adoption
			// target AdoptPreserved accepts.
			nd.state = stateSpare
			f.spares = append(f.spares, i)
		}
		f.net.Register(nd.id, nd.handle)
		f.nodes = append(f.nodes, nd)
	}

	f.net.Register(routerID, f.router.handle)
	f.fe = newFrontend(f)
	f.net.Register(feID, f.fe.handle)
	f.router.start()
	f.fe.start()

	slot := func(what string, s, r int) error {
		if s < 0 || s >= cfg.Shards || r < 0 || r >= cfg.Replicas {
			return fmt.Errorf("shard: %s targets (%d,%d) outside %dx%d", what, s, r, cfg.Shards, cfg.Replicas)
		}
		return nil
	}
	owner := func(s, r int) *node { return f.nodes[f.router.placement[s][r]] }
	for _, k := range sched.Kills {
		k := k
		if err := slot("kill", k.Shard, k.Replica); err != nil {
			return nil, err
		}
		clk.AfterFunc(k.At, func() { f.killReplica(k.Shard, k.Replica) })
	}
	for _, mv := range sched.Moves {
		mv := mv
		if err := slot("move", mv.Shard, mv.Replica); err != nil {
			return nil, err
		}
		clk.AfterFunc(mv.At, func() { f.startMove(mv.Shard, mv.Replica, "move") })
	}
	for _, rc := range sched.RingChanges {
		rc := rc
		if err := slot("ring change", rc.Shard, 0); err != nil {
			return nil, err
		}
		clk.AfterFunc(rc.At, func() { f.ringChange(rc.Shard) })
	}
	for _, sr := range sched.SnapshotReads {
		sr := sr
		if err := slot("snapshot read", sr.Shard, sr.Replica); err != nil {
			return nil, err
		}
		clk.AfterFunc(sr.At, func() { owner(sr.Shard, sr.Replica).snapshotRead(sr.Count, sr.Readers) })
	}
	for _, w := range sched.Drains {
		w := w
		if err := slot("drain", w.Shard, w.Replica); err != nil {
			return nil, err
		}
		clk.AfterFunc(w.From, func() {
			nd := owner(w.Shard, w.Replica)
			nd.drainStart()
			clk.AfterFunc(w.To-w.From, nd.drainEnd)
		})
	}
	for _, w := range sched.Partitions {
		w := w
		if err := slot("partition", w.Shard, w.Replica); err != nil {
			return nil, err
		}
		clk.AfterFunc(w.From, func() { f.partition(owner(w.Shard, w.Replica)) })
		clk.AfterFunc(w.To, f.heal)
	}

	return f, nil
}

// run advances the clock through the traffic window and the settle, audits
// the ledger and reports.
func (f *Fabric) run(sched Schedule) (Report, error) {
	f.clk.Advance(f.cfg.Profile.RunFor + f.cfg.Profile.settle())
	if f.firstErr != nil {
		return Report{}, f.firstErr
	}
	f.auditLedger()
	if f.firstErr != nil {
		return Report{}, f.firstErr
	}
	return f.report(sched), nil
}

// killReplica resolves (shard, replica) to whichever node owns the slot
// right now — a kill scheduled after a move lands on the new owner.
func (f *Fabric) killReplica(s, r int) {
	f.shardKills[s]++
	f.nodes[f.router.placement[s][r]].kill()
}

// ringChange rotates the shard's read affinity and relocates its primary
// through the migration machinery — the arc's ownership demonstrably moves.
func (f *Fabric) ringChange(s int) {
	f.ringGen++
	f.router.slotRot[s]++
	f.startMove(s, 0, "ring-change")
}

// partition isolates one node from the router, the frontend and every other
// node; the fabric drops messages in flight across the cut.
func (f *Fabric) partition(nd *node) {
	rest := []netsim.NodeID{routerID, feID}
	for _, other := range f.nodes {
		if other != nd {
			rest = append(rest, other.id)
		}
	}
	f.net.Partition(rest, []netsim.NodeID{nd.id})
	f.partitioned = nd.idx
}

func (f *Fabric) heal() {
	f.net.Heal()
	f.partitioned = -1
}

// openKillWindow opens the killed node's window, or keeps the one an
// earlier kill left open and restarts its recovery split at this kill.
func (f *Fabric) openKillWindow(nd *node) *windowRec {
	w := f.openW[nd.idx]
	if w == nil {
		w = &windowRec{shard: nd.shard, replica: nd.replica, node: nd.idx, killEpoch: nd.kills, start: f.clk.Now()}
		f.windows = append(f.windows, w)
		f.openW[nd.idx] = w
	}
	w.epoch, w.servedAt, w.readmitAt = nd.kills, -1, -1
	return w
}

// ledgerWrite records an acknowledged effective write. The ack condition is
// "every replica applied it", so a later audit read against any owner must
// find the key.
func (f *Fabric) ledgerWrite(req *workload.Request) {
	if req.Op == workload.OpDelete {
		delete(f.acked, req.Key)
		return
	}
	f.acked[req.Key] = true
}

// auditLedger is the lost-write oracle: after the run settles, every
// acknowledged write on a migrated shard must still be readable from the
// shard's current replica group. Kills are excluded for the modes that
// legitimately lose state on a kill (builtin may drop sub-checkpoint
// writes; vanilla drops everything) — PHOENIX shards are audited
// unconditionally, since preservation is lossless across both kills and
// migrations.
func (f *Fabric) auditLedger() {
	keys := make([]string, 0, len(f.acked))
	for k := range f.acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		s := f.router.ring.KeyShard(key)
		if !f.migrated[s] {
			continue
		}
		if !f.phoenixMode() && f.shardKills[s] > 0 {
			continue
		}
		var nd *node
		for _, n := range f.router.placement[s] {
			if f.nodes[n].state == stateServing {
				nd = f.nodes[n]
				break
			}
		}
		if nd == nil {
			continue
		}
		nd.syncClock()
		_, eff, err := nd.h.ServeRequest(&workload.Request{Op: workload.OpRead, Key: key})
		if err != nil {
			f.fail(fmt.Errorf("shard: ledger audit read %q: %w", key, err))
			return
		}
		f.ledgerChecked++
		if !eff {
			f.lostAcked++
			if len(f.lostKeys) < 8 {
				f.lostKeys = append(f.lostKeys, key)
			}
		}
	}
}
