package shard

import (
	"fmt"
	"time"

	"phoenix/internal/kernel"
)

// migration orchestrates one live shard move over kernel.Migration: in
// PHOENIX mode, background delta rounds run while the shard keeps serving,
// converging to the write rate; the shard's traffic is then frozen, drained,
// and cut over — the freeze covers only the final dirty delta. Non-PHOENIX
// modes have no preservation to ride, so the move degrades to stop-and-copy:
// freeze first, ship everything inside the window. Both paths flip the
// placement under the freeze and retire the source, so ownership is always
// single and every routed request lands on an owner.
type migration struct {
	f       *Fabric
	shard   int
	replica int
	reason  string
	srcNode int
	dstNode int

	mig *kernel.Migration

	rounds     []roundRec
	finalDelta int
	pages      int

	startAt   time.Duration
	freezeAt  time.Duration
	cutoverAt time.Duration
	endAt     time.Duration

	waitingDrain bool
	frozen       bool
	finished     bool
	aborted      bool
	skipped      bool
	skipReason   string
	retries      int
}

type roundRec struct {
	scanned, hashed, shipped int
	cost                     time.Duration
}

// startMove begins relocating one shard replica to the next free spare. A
// busy shard or an exhausted spare pool records a skipped move (visible in
// the report) instead of failing the run; a temporarily-down source retries
// until it recovers or the traffic window closes.
func (f *Fabric) startMove(s, r int, reason string) {
	m := &migration{f: f, shard: s, replica: r, reason: reason, startAt: f.clk.Now(), dstNode: -1}
	if f.activeShard[s] != nil {
		m.skipped, m.skipReason = true, "shard already migrating"
		f.migrations = append(f.migrations, m)
		return
	}
	if len(f.spares) == 0 {
		m.skipped, m.skipReason = true, "no spare available"
		f.migrations = append(f.migrations, m)
		return
	}
	src := f.nodes[f.router.placement[s][r]]
	if src.state != stateServing {
		// The source is down (mid-recovery): retry shortly instead of
		// migrating a dead process. Give up when the traffic window ends.
		if f.clk.Now() >= f.deadline {
			m.skipped, m.skipReason = true, "source down until window end"
			f.migrations = append(f.migrations, m)
			return
		}
		f.clk.AfterFunc(time.Millisecond, func() { f.startMove(s, r, reason) })
		return
	}
	m.srcNode = src.idx
	m.dstNode = f.spares[0]
	f.spares = f.spares[1:]
	dst := f.nodes[m.dstNode]

	h := src.h
	resolve := func() (kernel.ExecSpec, error) {
		plan, fb := h.App.PlanRestart(h.Runtime(), nil, false)
		if fb != "" {
			return kernel.ExecSpec{}, fmt.Errorf("restart plan refused: %s", fb)
		}
		return h.Runtime().ResolveSpec(plan)
	}
	kmig, err := kernel.StartMigration(h.Proc(), dst.h.M, resolve)
	if err != nil {
		f.fail(fmt.Errorf("shard: start migration %d/%d: %w", s, r, err))
		return
	}
	m.mig = kmig
	f.migrations = append(f.migrations, m)
	f.activeShard[s] = m
	f.activeSrc[m.srcNode] = m

	if f.phoenixMode() {
		m.deltaRound()
	} else {
		m.beginFreeze()
	}
}

// deltaRound runs one background copy round on the source's clock, mirrors
// its cost onto the fabric clock, and either converges into the freeze or
// schedules the next round after a gap of live traffic.
func (m *migration) deltaRound() {
	if m.aborted {
		return
	}
	f := m.f
	src := f.nodes[m.srcNode]
	src.syncClock()
	st, err := m.mig.DeltaRound()
	if err != nil {
		m.abort(fmt.Sprintf("delta round: %v", err))
		return
	}
	m.rounds = append(m.rounds, roundRec{st.Scanned, st.Hashed, st.Shipped, st.Cost})
	converged := len(m.rounds) >= 2 && st.Shipped <= migrationConvergePages
	maxed := len(m.rounds) >= migrationMaxRounds
	f.clk.AfterFunc(st.Cost, func() {
		if m.aborted {
			return
		}
		if converged || maxed {
			m.beginFreeze()
			return
		}
		f.clk.AfterFunc(migrationRoundGap, m.deltaRound)
	})
}

// beginFreeze holds the shard's traffic and waits for every in-flight
// dispatch to its replica group to drain; the drain completes via
// pokeMigrations on the responses (or on a killed group member's forgotten
// queue).
func (m *migration) beginFreeze() {
	if m.aborted {
		return
	}
	m.frozen = true
	m.waitingDrain = true
	m.freezeAt = m.f.clk.Now()
	m.f.router.freeze(m.shard)
	m.tryCutover()
}

// pokeMigrations re-checks every frozen migration's drain condition, in
// shard order — map iteration would let two same-instant cutovers register
// their timers in nondeterministic order.
func (f *Fabric) pokeMigrations() {
	for s := 0; s < f.cfg.Shards; s++ {
		if m := f.activeShard[s]; m != nil && m.waitingDrain {
			m.tryCutover()
		}
	}
}

func (m *migration) tryCutover() {
	if m.aborted || !m.waitingDrain || m.f.router.groupInflight(m.shard) > 0 {
		return
	}
	m.waitingDrain = false
	m.cutover()
}

// cutover performs the final delta ship and successor construction on the
// kernel, hands the preserved process to the destination harness, and
// mirrors both machines' costs onto the fabric clock before flipping
// ownership. The two are summed, not maxed: the final ship on the source,
// the page install on the destination, and the adopting boot run as a
// serial pipeline — nothing overlaps inside the blackout.
func (m *migration) cutover() {
	f := m.f
	m.cutoverAt = f.clk.Now()
	src, dst := f.nodes[m.srcNode], f.nodes[m.dstNode]
	src.syncClock()
	dst.syncClock()
	srcBefore := src.h.M.Clock.Now()
	dstBefore := dst.h.M.Clock.Now()

	np, st, err := m.mig.Cutover()
	if err != nil {
		m.abort(fmt.Sprintf("cutover: %v", err))
		return
	}
	m.finalDelta = st.Shipped
	m.pages = st.Scanned
	if err := dst.h.AdoptPreserved(np); err != nil {
		f.fail(fmt.Errorf("shard: node %d adopt shard %d: %w", m.dstNode, m.shard, err))
		return
	}

	// The move is committed: the kernel killed the source process when the
	// successor was built (single-owner invariant). Retire the source node
	// now, not at finish — a scheduled kill resolving to it inside the
	// blackout would otherwise drive recovery on a dead process — and stop
	// tracking it as an abortable source.
	delete(f.activeSrc, m.srcNode)
	src.retire()

	srcD := src.h.M.Clock.Now() - srcBefore
	dstD := dst.h.M.Clock.Now() - dstBefore
	f.clk.AfterFunc(srcD+dstD, m.finish)
}

// finish flips placement to the destination (the source retired at cutover
// commit) and releases the shard's traffic against the new owner.
func (m *migration) finish() {
	f := m.f
	m.endAt = f.clk.Now()
	m.finished = true
	f.migrated[m.shard] = true

	f.router.flip(m.shard, m.replica, m.dstNode)
	dst := f.nodes[m.dstNode]
	dst.state = stateServing
	dst.shard, dst.replica = m.shard, m.replica
	dst.ack()

	delete(f.activeShard, m.shard)
	m.frozen = false
	f.router.unfreeze(m.shard)
}

// abort abandons the move: buffered pages are discarded, the untouched
// spare returns to the pool, and a frozen shard resumes against its
// original owner.
func (m *migration) abort(reason string) {
	if m.aborted || m.finished {
		return
	}
	m.aborted = true
	m.skipReason = reason
	m.endAt = m.f.clk.Now()
	if m.mig != nil {
		m.mig.Abort()
	}
	f := m.f
	delete(f.activeShard, m.shard)
	delete(f.activeSrc, m.srcNode)
	if m.dstNode >= 0 {
		f.spares = append(f.spares, m.dstNode)
	}
	if m.frozen {
		m.frozen = false
		m.waitingDrain = false
		f.router.unfreeze(m.shard)
	}
}

// abortMigrationsFrom aborts any migration sourcing from a node that is
// about to die — its buffered baseline dies with the process.
func (f *Fabric) abortMigrationsFrom(nodeIdx int, reason string) {
	if m, ok := f.activeSrc[nodeIdx]; ok {
		m.abort(reason)
	}
}
