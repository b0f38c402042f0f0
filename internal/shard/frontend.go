package shard

import (
	"time"

	"phoenix/internal/netsim"
	"phoenix/internal/simclock"
	"phoenix/internal/workload"
)

// frontend is the open-loop client population: arrivals come from a seeded
// Poisson-like process against the fabric clock, independent of when
// earlier requests complete — a stalled shard cannot slow the offered load
// down, so unavailability surfaces as queueing, timeouts, and tail latency.
// Each arrival belongs to one of Population logical clients; the frontend
// tracks per-request retry state (timeouts, refusal retries, read hedges)
// and classifies outcomes.
type frontend struct {
	f       *Fabric
	arrival *workload.OpenLoop
	gen     workload.Generator

	rid     uint64
	pending map[uint64]*pending
}

type pending struct {
	client   int64
	req      *workload.Request
	attempt  int
	resent   bool
	issuedAt time.Duration
	timeout  *simclock.Timer
	hedge    *simclock.Timer
}

func newFrontend(f *Fabric) *frontend {
	return &frontend{
		f:       f,
		arrival: workload.NewOpenLoop(f.cfg.Seed*999_983+1, f.cfg.Profile.ArrivalMean, f.cfg.Profile.Population, 0),
		gen:     f.cfg.Profile.Proto.Clone(f.cfg.Seed*1_000_003 + 1),
		pending: make(map[uint64]*pending),
	}
}

// start schedules the first arrival; each arrival schedules the next, so
// the open-loop stream unrolls lazily on the fabric clock.
func (fe *frontend) start() { fe.scheduleNext() }

func (fe *frontend) scheduleNext() {
	at, client := fe.arrival.Next()
	if at >= fe.f.deadline {
		return
	}
	fe.f.clk.AfterFunc(at-fe.f.clk.Now(), func() { fe.arrive(client) })
}

func (fe *frontend) arrive(client int64) {
	fe.scheduleNext()
	fe.rid++
	p := &pending{client: client, req: fe.gen.Next(), issuedAt: fe.f.clk.Now()}
	fe.pending[fe.rid] = p
	fe.f.totalRequests++
	fe.send(fe.rid, p)
}

func (fe *frontend) send(rid uint64, p *pending) {
	fe.stopTimers(p)
	fe.f.net.Send(feID, routerID, reqEnv{Client: p.client, RID: rid, Attempt: p.attempt, Req: p.req})
	p.timeout = fe.f.clk.AfterFunc(fe.f.cfg.Profile.Timeout, func() { fe.onTimeout(rid) })
	if hd := fe.f.cfg.Profile.HedgeDelay; hd > 0 && p.attempt == 0 && !isWrite(p.req.Op) {
		p.hedge = fe.f.clk.AfterFunc(hd, func() { fe.onHedge(rid) })
	}
}

func (fe *frontend) stopTimers(p *pending) {
	if p.timeout != nil {
		fe.f.clk.Stop(p.timeout)
		p.timeout = nil
	}
	if p.hedge != nil {
		fe.f.clk.Stop(p.hedge)
		p.hedge = nil
	}
}

// onHedge duplicates a slow read at the next replica slot of the same
// shard; whichever response returns first wins.
func (fe *frontend) onHedge(rid uint64) {
	p, ok := fe.pending[rid]
	if !ok {
		return
	}
	p.hedge = nil
	p.resent = true
	fe.f.net.Send(feID, routerID, reqEnv{Client: p.client, RID: rid, Attempt: p.attempt + 1, Req: p.req})
}

func (fe *frontend) onTimeout(rid uint64) {
	p, ok := fe.pending[rid]
	if !ok {
		return
	}
	p.timeout = nil
	if p.attempt >= fe.f.cfg.Profile.MaxRetries {
		fe.finish(rid, p, false, true)
		return
	}
	p.attempt++
	p.resent = true
	fe.send(rid, p)
}

func (fe *frontend) handle(m netsim.Message) {
	env, ok := m.Payload.(clientRespEnv)
	if !ok {
		return
	}
	// Hedge losers, write-fan duplicates, and responses to requests that
	// already timed out carry an unknown RID: drop them.
	p, live := fe.pending[env.RID]
	if !live {
		return
	}
	if env.Refused {
		if p.timeout != nil {
			fe.f.clk.Stop(p.timeout)
			p.timeout = nil
		}
		if p.attempt >= fe.f.cfg.Profile.MaxRetries {
			fe.finish(env.RID, p, false, true)
			return
		}
		p.attempt++
		p.resent = true
		fe.f.clk.AfterFunc(fe.f.cfg.Profile.RetryDelay, func() {
			if q, ok := fe.pending[env.RID]; ok {
				fe.send(env.RID, q)
			}
		})
		return
	}
	fe.finish(env.RID, p, env.Effective, false)
}

// finish records the request's latency and classifies its outcome, and for
// acknowledged effective writes updates the fabric's acked-write ledger —
// the ground truth the lost-write oracle audits after the run. A failed
// request's latency is the time its client gave up: a failure misses any
// latency limit, so it belongs in the percentiles.
func (fe *frontend) finish(rid uint64, p *pending, effective, failed bool) {
	fe.stopTimers(p)
	delete(fe.pending, rid)
	f := fe.f
	f.latencies = append(f.latencies, f.clk.Now()-p.issuedAt)
	if failed {
		f.failed++
		return
	}
	switch {
	case effective && !p.resent:
		f.served++
	case effective:
		f.retried++
	default:
		f.stale++
	}
	if effective && isWrite(p.req.Op) {
		f.ledgerWrite(p.req)
	}
}
