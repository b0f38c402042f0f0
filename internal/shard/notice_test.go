package shard

// Tests of the membership notices: a killed node's down notice, its up
// notice when it serves again, and the kill epochs that let the router
// order them against probe acks whatever the fabric does to them on the
// wire. They tap the router's and a node's delivery handlers, so they live
// inside the package.

import (
	"fmt"
	"testing"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/faultinject"
	"phoenix/internal/netsim"
	"phoenix/internal/recovery"
	"phoenix/internal/simclock"
	"phoenix/internal/workload"
)

const noticeKillAt = 40 * time.Millisecond

var killNode0 = Schedule{Kills: []Kill{{At: noticeKillAt}}}

// noticeFabric builds kvstore on one shard of three replicas, no spares,
// under PHOENIX: read-mostly traffic over a warmed keyspace, against sched.
// inj, when non-nil, strikes the network.
func noticeFabric(t *testing.T, sched Schedule, inj *faultinject.Injector) *Fabric {
	t.Helper()
	const records = 256
	ycsb := func() workload.Generator {
		return workload.NewYCSB(workload.YCSBConfig{Seed: 1, Records: records, ReadFrac: 0.95, ValueSize: 64})
	}
	var warm []*workload.Request
	for i := uint64(0); i < records; i++ {
		key := fmt.Sprintf("user%010d", i)
		warm = append(warm, &workload.Request{Seq: i + 1, Op: workload.OpInsert, Key: key, Value: workload.Value(key, 1, 64)})
	}
	mk := func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
		return kvstore.New(kvstore.Config{}, inj), ycsb()
	}
	f, err := newFabric(Config{
		System: "kvstore", Shards: 1, Replicas: 3, Seed: 1,
		Recovery: recovery.Config{Mode: recovery.ModePhoenix},
		Profile:  Profile{Proto: ycsb(), Warm: warm, ArrivalMean: 100 * time.Microsecond, RunFor: 120 * time.Millisecond},
		Inj:      inj,
	}, mk, sched)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// tapRouter passes every message the fabric delivers to the router through
// tap, which hands it on (now, later or never) through deliver.
func tapRouter(f *Fabric, tap func(m netsim.Message, deliver func(netsim.Message))) {
	f.net.Register(routerID, func(m netsim.Message) { tap(m, f.router.handle) })
}

// runNotice runs the fabric and returns its report and its one kill window,
// which must have closed.
func runNotice(t *testing.T, f *Fabric, sched Schedule) (Report, WindowReport) {
	t.Helper()
	rep, err := f.run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) != 1 || !rep.Windows[0].Closed {
		t.Fatalf("want one closed kill window, got %+v", rep.Windows)
	}
	return rep, rep.Windows[0]
}

// delivery is the longest one fabric delivery takes, in µs.
const delivery = int64((linkLatency + linkJitter) / time.Microsecond)

// TestPreKillAckAfterDownNoticeDoesNotReadmit holds node 0's probe acks from
// its last probe interval before the kill and delivers them right after its
// down notice: acks of the old kill epoch must not readmit the dead node,
// and the up notice still readmits it one delivery after it serves again.
func TestPreKillAckAfterDownNoticeDoesNotReadmit(t *testing.T) {
	f := noticeFabric(t, killNode0, nil)
	var held []netsim.Message
	released := 0
	tapRouter(f, func(m netsim.Message, deliver func(netsim.Message)) {
		switch env := m.Payload.(type) {
		case ackEnv:
			if env.Node == 0 && env.Epoch == 0 && f.clk.Now() >= noticeKillAt-probeInterval {
				held = append(held, m)
				return
			}
		case downEnv:
			deliver(m)
			for _, ack := range held {
				deliver(ack)
			}
			released, held = len(held), nil
			if f.router.healthy(0) {
				t.Errorf("%d pre-kill acks delivered after the down notice readmitted node 0", released)
			}
			return
		}
		deliver(m)
	})
	_, w := runNotice(t, f, killNode0)
	if released == 0 {
		t.Fatal("no pre-kill ack was held back past the down notice")
	}
	if _, readmit, _ := w.Split(); readmit > delivery {
		t.Fatalf("node 0 readmitted %dµs after it served again, later than one delivery (%dµs)", readmit, delivery)
	}
}

// TestDroppedUpNoticeFallsBackToProbe drops node 0's up notice at the
// netsim drop site: readmission then waits for the next probe ack, which
// lands at most a probe interval plus the probe's and the ack's flights
// after the node serves again.
func TestDroppedUpNoticeFallsBackToProbe(t *testing.T) {
	// An undisturbed run names the up notice: the first ack of kill epoch 1
	// that node 0 sends.
	f := noticeFabric(t, killNode0, nil)
	var upSeq uint64
	tapRouter(f, func(m netsim.Message, deliver func(netsim.Message)) {
		if env, ok := m.Payload.(ackEnv); ok && env.Node == 0 && env.Epoch == 1 && (upSeq == 0 || m.Seq < upSeq) {
			upSeq = m.Seq
		}
		deliver(m)
	})
	_, clean := runNotice(t, f, killNode0)
	if upSeq == 0 {
		t.Fatal("node 0 sent no up notice")
	}

	// Every send before it passes the drop site once, so the site's
	// upSeq-th pass is the up notice.
	inj := faultinject.New()
	netsim.RegisterSites(inj)
	inj.ArmAfter(netsim.SiteLinkDrop, faultinject.OpFailure, int(upSeq-1))
	inj.Enable()
	f = noticeFabric(t, killNode0, inj)
	tapRouter(f, func(m netsim.Message, deliver func(netsim.Message)) {
		if m.Seq == upSeq {
			t.Errorf("the dropped up notice was delivered: %+v", m.Payload)
		}
		deliver(m)
	})
	rep, w := runNotice(t, f, killNode0)
	if rep.NetInjectedDrops != 1 || w.ServedUs != clean.ServedUs {
		t.Fatalf("%d injected drops, node served again at %dµs (%dµs undisturbed): the drop missed the up notice",
			rep.NetInjectedDrops, w.ServedUs, clean.ServedUs)
	}
	_, readmit, _ := w.Split()
	limit := (probeInterval + 2*(linkLatency+linkJitter)).Microseconds()
	t.Logf("readmission %dµs after serving again, %dµs with the up notice", readmit, clean.ReadmitUs-clean.ServedUs)
	if w.ReadmitUs <= clean.ReadmitUs || readmit > limit {
		t.Fatalf("readmitted %dµs after serving again (%dµs with the up notice), want later, within %dµs",
			readmit, clean.ReadmitUs-clean.ServedUs, limit)
	}
}

// TestLateDownNoticeDoesNotEvictRecoveredNode holds node 0's down notice
// until its up notice has readmitted it: the stale notice carries the same
// kill epoch as the up notice and must leave the node in the read rotation.
func TestLateDownNoticeDoesNotEvictRecoveredNode(t *testing.T) {
	f := noticeFabric(t, killNode0, nil)
	var held []netsim.Message
	late := false
	tapRouter(f, func(m netsim.Message, deliver func(netsim.Message)) {
		switch env := m.Payload.(type) {
		case downEnv:
			held = append(held, m)
			return
		case ackEnv:
			if env.Node == 0 && env.Epoch == 1 && len(held) > 0 {
				deliver(m)
				for _, down := range held {
					deliver(down)
				}
				held, late = nil, true
				if !f.router.healthy(0) {
					t.Error("a down notice delivered after the up notice evicted the recovered node")
				}
				return
			}
		}
		deliver(m)
	})
	_, w := runNotice(t, f, killNode0)
	if !late {
		t.Fatal("the down notice was never delivered after the up notice")
	}
	if _, readmit, _ := w.Split(); readmit > delivery {
		t.Fatalf("node 0 readmitted %dµs after it served again, later than one delivery (%dµs)", readmit, delivery)
	}
}

// TestPartitionCutsNotices kills node 0 while a partition isolates it and
// lets it recover inside the partition: the fabric cuts its down notice and
// its up notice, and the router readmits it only on a probe ack after the
// heal.
func TestPartitionCutsNotices(t *testing.T) {
	cut := Window{From: 30 * time.Millisecond, To: 90 * time.Millisecond}
	sched := Schedule{Kills: killNode0.Kills, Partitions: []Window{cut}}
	f := noticeFabric(t, sched, nil)
	crossed := 0
	tapRouter(f, func(m netsim.Message, deliver func(netsim.Message)) {
		switch env := m.Payload.(type) {
		case ackEnv:
			if env.Node == 0 && f.clk.Now() >= cut.From && f.clk.Now() < cut.To {
				crossed++
			}
		case downEnv:
			crossed++
		}
		deliver(m)
	})
	rep, w := runNotice(t, f, sched)
	if crossed != 0 {
		t.Fatalf("%d notices or acks from node 0 crossed the partition", crossed)
	}
	if heal := cut.To.Microseconds(); w.ServedUs >= heal || w.ReadmitUs < heal {
		t.Fatalf("node 0 served again at %dµs and was readmitted at %dµs; want recovery inside the partition and readmission after the heal at %dµs",
			w.ServedUs, w.ReadmitUs, heal)
	}
	if rep.NetPartitionDrops == 0 || rep.PartitionResponses != 0 {
		t.Fatalf("partition drops %d, responses across it %d", rep.NetPartitionDrops, rep.PartitionResponses)
	}
}

// TestDownNoticeStopsReadDispatch: once node 0's down notice lands, the
// router sends it no read until it readmits the node, since two healthy
// peers remain. Reads reach it before the kill and after the readmission.
func TestDownNoticeStopsReadDispatch(t *testing.T) {
	f := noticeFabric(t, killNode0, nil)
	// The fabric's send count when each notice lands: a message sent later
	// carries a higher sequence number.
	var downMark, upMark uint64
	tapRouter(f, func(m netsim.Message, deliver func(netsim.Message)) {
		deliver(m)
		switch env := m.Payload.(type) {
		case downEnv:
			if downMark == 0 {
				downMark = uint64(f.net.Stat.Sent)
			}
		case ackEnv:
			if env.Node == 0 && env.Epoch == 1 && upMark == 0 {
				upMark = uint64(f.net.Stat.Sent)
			}
		}
	})
	var before, down, after int
	f.net.Register(nodeID(0), func(m netsim.Message) {
		if d, ok := m.Payload.(dispatchEnv); ok && !isWrite(d.Req.Op) {
			switch {
			case downMark == 0 || m.Seq <= downMark:
				before++
			case upMark == 0 || m.Seq <= upMark:
				down++
			default:
				after++
			}
		}
		f.nodes[0].handle(m)
	})
	runNotice(t, f, killNode0)
	if downMark == 0 || upMark == 0 {
		t.Fatalf("down notice landed after %d sends, up notice after %d", downMark, upMark)
	}
	t.Logf("reads dispatched to node 0: %d before its down notice landed, %d while down, %d after readmission", before, down, after)
	if down != 0 {
		t.Fatalf("%d reads dispatched to node 0 between its down notice and its readmission", down)
	}
	if before == 0 || after == 0 {
		t.Fatalf("node 0 got %d reads before the kill and %d after readmission; slot affinity should send it some", before, after)
	}
}

// FuzzMembershipOrder delivers one node's acks and down notices to the
// router shuffled and duplicated. The node's history is acks of epoch 0,
// then per kill a down notice of the kill's epoch followed by acks of that
// epoch (none after the last kill when it never recovered). After every
// delivery the node must be down exactly when the newest down epoch
// delivered is above the newest ack epoch, and healthy exactly when it is
// not down and its last ack is fresh. After all of them, whatever the
// order, it is down exactly when the history ends with a kill.
func FuzzMembershipOrder(f *testing.F) {
	f.Add(uint8(1), uint8(2), false, []byte{3, 0, 1})
	f.Add(uint8(2), uint8(1), true, []byte{0x83, 2, 0x81, 0, 5})
	f.Add(uint8(3), uint8(3), false, []byte{9, 9, 0x80, 1, 0x82, 7, 4, 4})
	f.Fuzz(func(t *testing.T, kills, acks uint8, ended bool, order []byte) {
		kills, acks = kills%6, acks%4+1
		type notice struct {
			down  bool
			epoch int
		}
		var history []notice
		for e := 0; e <= int(kills); e++ {
			if e > 0 {
				history = append(history, notice{down: true, epoch: e})
			}
			if e == int(kills) && kills > 0 && ended {
				break // the last kill never recovered
			}
			for range acks {
				history = append(history, notice{epoch: e})
			}
		}

		fab := &Fabric{clk: simclock.New(), openW: make([]*windowRec, 1)}
		fab.router = &router{f: fab, members: make([]member, 1)}
		maxAck, maxDown, lastAck, acked := 0, 0, time.Duration(0), false
		var delivered []notice
		deliver := func(n notice) {
			fab.clk.Advance(time.Millisecond)
			if n.down {
				fab.router.handle(netsim.Message{Payload: downEnv{Node: 0, Epoch: n.epoch}})
				maxDown = max(maxDown, n.epoch)
			} else {
				fab.router.handle(netsim.Message{Payload: ackEnv{Node: 0, Epoch: n.epoch}})
				maxAck, lastAck, acked = max(maxAck, n.epoch), fab.clk.Now(), true
			}
			delivered = append(delivered, n)
			wantDown := maxDown > maxAck
			wantHealthy := !wantDown && acked && fab.clk.Now()-lastAck <= probeStale
			if got := fab.router.members[0].down(); got != wantDown {
				t.Fatalf("after %v: down=%v, want %v (newest down epoch %d, newest ack epoch %d)", delivered, got, wantDown, maxDown, maxAck)
			}
			if got := fab.router.healthy(0); got != wantHealthy {
				t.Fatalf("after %v: healthy=%v, want %v", delivered, got, wantHealthy)
			}
		}
		pending := history
		for _, b := range order {
			if len(pending) == 0 {
				break
			}
			if b&0x80 != 0 && len(delivered) > 0 {
				deliver(delivered[int(b&0x7f)%len(delivered)]) // a duplicate
				continue
			}
			i := int(b) % len(pending)
			n := pending[i]
			pending = append(pending[:i:i], pending[i+1:]...)
			deliver(n)
		}
		for _, n := range pending {
			deliver(n)
		}
		if want := kills > 0 && ended; fab.router.members[0].down() != want {
			t.Fatalf("history %v delivered as %v leaves the node down=%v, want %v", history, delivered, !want, want)
		}
	})
}
