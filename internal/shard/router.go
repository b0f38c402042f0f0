package shard

import (
	"time"

	"phoenix/internal/netsim"
	"phoenix/internal/workload"
)

// router is the shard-aware front tier: it maps keys to shards through the
// ring, shards to nodes through the (mutable) placement table, keeps each
// node's membership from its notices and probe acks, spreads reads across a
// shard's replica group by key slot, fans writes out to the whole group,
// and holds a shard's traffic while its migration cuts over. Retries and
// hedges never leave the shard's replica group. It also runs three of the
// campaign's oracles inline: the non-owner check (a non-refused response
// computed under a stale ownership epoch), the partition check (a
// non-refused response from a partitioned node), and the per-node
// kill-window bookkeeping.
type router struct {
	f *Fabric

	ring *Ring
	// placement maps shard → replica slot → node index; migrations rewrite
	// it at cutover, under the shard's freeze.
	placement [][]int
	// epoch is the per-shard ownership generation, bumped exactly when the
	// shard's placement changes.
	epoch []int
	// slotRot rotates a shard's read affinity; ring changes bump it.
	slotRot []int

	members []member

	frozen  []bool
	freezeQ [][]reqEnv

	// inflight counts dispatches to each node that have not yet produced a
	// response at the router — the drain condition for a frozen shard.
	inflight []int

	// wpends aggregates write fan-outs: one client answer per attempt.
	wpends map[wkey]*wagg

	nonOwnerServes int
	// partitionResponses counts non-refused responses from the partitioned
	// node. The fabric cuts them, so the count must stay zero.
	partitionResponses int
}

type wkey struct {
	rid     uint64
	attempt int
}

type wagg struct {
	need, responded, effective, refused int
}

func newRouter(f *Fabric) *router {
	cfg := f.cfg
	r := &router{
		f:        f,
		ring:     NewRing(cfg.Seed, cfg.Shards, vnodesPerShard),
		epoch:    make([]int, cfg.Shards),
		slotRot:  make([]int, cfg.Shards),
		frozen:   make([]bool, cfg.Shards),
		freezeQ:  make([][]reqEnv, cfg.Shards),
		members:  make([]member, cfg.Shards*cfg.Replicas+cfg.Spares),
		inflight: make([]int, cfg.Shards*cfg.Replicas+cfg.Spares),
		wpends:   make(map[wkey]*wagg),
	}
	for s := 0; s < cfg.Shards; s++ {
		group := make([]int, cfg.Replicas)
		for i := range group {
			group[i] = s*cfg.Replicas + i
		}
		r.placement = append(r.placement, group)
	}
	return r
}

// member is the router's view of one node. Nodes announce their own crash
// and return over the fabric: a killed node's host sends a down notice
// before recovery starts, and a node that serves again sends an unsolicited
// ack, the up notice, so the router readmits it when that ack lands instead
// of at the next probe. Acks and down notices carry the node's kill epoch
// (its kill count), and a node is down exactly when its newest down notice
// has a higher epoch than its newest ack: an ack still on the wire at the
// kill cannot readmit a dead node, and a down notice delayed past the
// recovery cannot evict a recovered one.
//
// Probes stay the only detector of silent failures (partitions, notices
// lost to link faults) and of drain starts: a node whose acks stop for
// longer than probeStale is unhealthy whatever its epochs say.
type member struct {
	lastAck             time.Duration
	ackEpoch, downEpoch int
}

func (m *member) ack(epoch int, now time.Duration) {
	m.lastAck = now
	m.ackEpoch = max(m.ackEpoch, epoch)
}

func (m *member) noteDown(epoch int) { m.downEpoch = max(m.downEpoch, epoch) }

func (m *member) down() bool { return m.downEpoch > m.ackEpoch }

func (r *router) start() { r.probe() }

func (r *router) probe() {
	for _, nd := range r.f.nodes {
		r.f.net.Send(routerID, nd.id, probeEnv{})
	}
	r.f.clk.AfterFunc(probeInterval, r.probe)
}

func (r *router) healthy(nodeIdx int) bool {
	m := &r.members[nodeIdx]
	return !m.down() && r.f.clk.Now()-m.lastAck <= probeStale
}

func (r *router) handle(m netsim.Message) {
	switch env := m.Payload.(type) {
	case reqEnv:
		r.route(env)
	case respEnv:
		r.onResponse(env)
	case ackEnv:
		r.members[env.Node].ack(env.Epoch, r.f.clk.Now())
		// The first ack of the node's newest kill epoch readmits it.
		if w := r.f.openW[env.Node]; w != nil && w.readmitAt < 0 && env.Epoch >= w.epoch {
			w.readmitAt = r.f.clk.Now()
		}
	case downEnv:
		r.members[env.Node].noteDown(env.Epoch)
	}
}

func isWrite(op workload.Op) bool {
	return op == workload.OpInsert || op == workload.OpUpdate || op == workload.OpDelete
}

// route resolves the key's shard and dispatches. A frozen shard's arrivals
// queue behind the cutover and re-route — against the new placement — when
// it unfreezes; their client-side timeout clocks keep running, which is how
// migration stalls surface as tail latency instead of disappearing.
func (r *router) route(env reqEnv) {
	s := r.ring.KeyShard(env.Req.Key)
	if r.frozen[s] {
		r.freezeQ[s] = append(r.freezeQ[s], env)
		return
	}
	group := r.placement[s]
	d := dispatchEnv{
		Client: env.Client, RID: env.RID, Attempt: env.Attempt,
		Req: env.Req, Shard: s, Epoch: r.epoch[s],
	}
	if isWrite(env.Req.Op) {
		// Writes replicate synchronously: fan to the whole group, ack the
		// client only when every replica applied it (puts are idempotent,
		// so a partial fan-out is safely retried whole).
		d.Fan = len(group)
		r.wpends[wkey{env.RID, env.Attempt}] = &wagg{need: len(group)}
		for _, n := range group {
			r.dispatch(n, d)
		}
		return
	}
	// Reads: slot affinity spreads the group; retries and hedges walk the
	// same group, never another shard's.
	start := (r.ring.KeySlot(env.Req.Key, len(group)) + r.slotRot[s] + env.Attempt) % len(group)
	for i := 0; i < len(group); i++ {
		n := group[(start+i)%len(group)]
		if r.healthy(n) {
			r.dispatch(n, d)
			return
		}
	}
	r.dispatch(group[start], d)
}

func (r *router) dispatch(nodeIdx int, d dispatchEnv) {
	r.inflight[nodeIdx]++
	r.f.net.Send(routerID, r.f.nodes[nodeIdx].id, d)
}

// forgetInflight drops dispatches that died with a killed node's queue (the
// node will never respond to them); without this a frozen shard sharing the
// group with a killed replica could never drain.
func (r *router) forgetInflight(nodeIdx, n int) {
	r.inflight[nodeIdx] -= n
	if r.inflight[nodeIdx] < 0 {
		r.inflight[nodeIdx] = 0
	}
	r.f.pokeMigrations()
}

// groupInflight sums the in-flight dispatches across a shard's current
// replica group.
func (r *router) groupInflight(s int) int {
	total := 0
	for _, n := range r.placement[s] {
		total += r.inflight[n]
	}
	return total
}

func (r *router) onResponse(env respEnv) {
	if r.inflight[env.Node] > 0 {
		r.inflight[env.Node]--
	}

	// Non-owner oracle: ownership epochs bump exactly at placement flips,
	// and the freeze protocol drains every in-flight dispatch before
	// flipping — so a non-refused response carrying a stale epoch is a
	// request served by a node that no longer owned the shard.
	if !env.Refused && env.Epoch != r.epoch[env.Shard] {
		r.nonOwnerServes++
	}
	if !env.Refused && env.Node == r.f.partitioned {
		r.partitionResponses++
	}

	// An effective read from a killed node proves it serves real state
	// again: close its kill window. (Writes don't count — a freshly wiped
	// node answers writes instantly without having recovered anything.)
	isRead := env.Op == workload.OpRead || env.Op == workload.OpWebGet
	if w := r.f.openW[env.Node]; w != nil && !env.Refused && env.Effective && isRead && env.KillEpoch >= w.killEpoch {
		w.end = r.f.clk.Now()
		if w.readmitAt < 0 {
			// The router reached the node before any ack of its epoch did:
			// a read it sent while no replica of the group was healthy.
			w.readmitAt = w.end
		}
		w.closed = true
		r.f.openW[env.Node] = nil
	}

	if env.Fan > 0 {
		r.onWriteResponse(env)
	} else {
		r.f.net.Send(routerID, feID, clientRespEnv{
			Client: env.Client, RID: env.RID, Attempt: env.Attempt,
			Effective: env.Effective, Refused: env.Refused,
		})
	}

	// A frozen shard may have just finished draining.
	r.f.pokeMigrations()
}

func (r *router) onWriteResponse(env respEnv) {
	k := wkey{env.RID, env.Attempt}
	agg, ok := r.wpends[k]
	if !ok {
		return
	}
	agg.responded++
	if env.Refused {
		agg.refused++
	} else if env.Effective {
		agg.effective++
	}
	if agg.responded < agg.need {
		return
	}
	delete(r.wpends, k)
	r.f.net.Send(routerID, feID, clientRespEnv{
		Client: env.Client, RID: env.RID, Attempt: env.Attempt,
		Effective: agg.refused == 0 && agg.effective == agg.need,
		Refused:   agg.refused > 0,
	})
}

// freeze holds a shard's dispatches for a migration cutover.
func (r *router) freeze(s int) { r.frozen[s] = true }

// unfreeze releases a shard and re-routes everything that queued behind the
// freeze — against the post-cutover placement.
func (r *router) unfreeze(s int) {
	if !r.frozen[s] {
		return
	}
	r.frozen[s] = false
	q := r.freezeQ[s]
	r.freezeQ[s] = nil
	for _, env := range q {
		r.route(env)
	}
}

// flip rewrites one replica slot of a shard's placement and bumps the
// ownership epoch. Callers hold the shard frozen and drained.
func (r *router) flip(s, replica, newNode int) {
	r.placement[s][replica] = newNode
	r.epoch[s]++
}
