package shard_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// lagGen writes a fresh key per request for its first lag requests, then
// alternates: odd requests write a fresh key, even ones read back the key
// written lag requests earlier, long after its write was acknowledged.
type lagGen struct{ n uint64 }

const lag = 401

func (g *lagGen) Next() *workload.Request {
	g.n++
	if g.n <= lag || g.n%2 == 1 {
		key := fmt.Sprintf("k%d", g.n)
		return &workload.Request{Seq: g.n, Op: workload.OpInsert, Key: key, Value: workload.Value(key, 1, 64)}
	}
	return &workload.Request{Seq: g.n, Op: workload.OpRead, Key: fmt.Sprintf("k%d", g.n-lag)}
}

func (g *lagGen) Clone(int64) workload.Generator { return &lagGen{} }

// readGen reads the warm keys k1..k64 round-robin.
type readGen struct{ n uint64 }

func (g *readGen) Next() *workload.Request {
	g.n++
	return &workload.Request{Seq: g.n, Op: workload.OpRead, Key: fmt.Sprintf("k%d", g.n%64+1)}
}

func (g *readGen) Clone(int64) workload.Generator { return &readGen{} }

// groupRun runs kvstore on one shard of three replicas, no spares, under
// PHOENIX and the given traffic and schedule.
func groupRun(t *testing.T, gen workload.Generator, warm []*workload.Request, sched shard.Schedule) shard.Report {
	t.Helper()
	rep, err := shard.Run(shard.Config{
		System:   "kvstore",
		Shards:   1,
		Replicas: 3,
		Seed:     1,
		Recovery: recovery.Config{Mode: recovery.ModePhoenix},
		Profile:  shard.Profile{Proto: gen, Warm: warm, ArrivalMean: 100 * time.Microsecond, RunFor: 160 * time.Millisecond},
	}, registry.Factories(1)["kvstore"], sched)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDrainRefusesReadsAndAppliesWrites drains replica 2 while keys are
// written and later read back. The drained replica refuses reads only until
// the router sees its probe acks stop, so a drain three times longer
// refuses exactly as many reads. It keeps applying the fanned-out writes:
// every write succeeds, and no read of a key written during the drain comes
// back empty, although a third of them land on replica 2 after it rejoins.
func TestDrainRefusesReadsAndAppliesWrites(t *testing.T) {
	drain := func(to time.Duration) shard.Report {
		return groupRun(t, &lagGen{}, nil, shard.Schedule{
			Drains: []shard.Window{{From: 50 * time.Millisecond, To: to, Replica: 2}},
		})
	}
	short, long := drain(70*time.Millisecond), drain(110*time.Millisecond)
	for _, rep := range []shard.Report{short, long} {
		t.Logf("%s drain_refusals=%d", rep, rep.DrainRefusals)
		if rep.DrainRefusals == 0 || rep.Nodes[2].Refused != rep.DrainRefusals {
			t.Fatalf("replica 2 refused %d reads, %d while draining", rep.Nodes[2].Refused, rep.DrainRefusals)
		}
		if rep.Failed != 0 || rep.Stale != 0 {
			t.Fatalf("drained replica lost writes: %d failed, %d reads came back empty", rep.Failed, rep.Stale)
		}
	}
	if long.DrainRefusals != short.DrainRefusals {
		t.Fatalf("a 60ms drain refused %d reads, a 20ms one %d: the router kept reading from the drained replica",
			long.DrainRefusals, short.DrainRefusals)
	}
}

// TestPartitionDropsAndReadsFailOver partitions replica 1 under read-only
// traffic: no response crosses the cut, the fabric drops the messages sent
// across it, and every read the partition swallowed is retried on another
// replica and served.
func TestPartitionDropsAndReadsFailOver(t *testing.T) {
	var warm []*workload.Request
	for i := 1; i <= 64; i++ {
		key := fmt.Sprintf("k%d", i)
		warm = append(warm, &workload.Request{Seq: uint64(i), Op: workload.OpInsert, Key: key, Value: workload.Value(key, 1, 64)})
	}
	rep := groupRun(t, &readGen{}, warm, shard.Schedule{
		Partitions: []shard.Window{{From: 30 * time.Millisecond, To: 70 * time.Millisecond, Replica: 1}},
	})
	t.Logf("%s partition_drops=%d", rep, rep.NetPartitionDrops)
	if rep.PartitionResponses != 0 {
		t.Fatalf("%d responses crossed the partition", rep.PartitionResponses)
	}
	if rep.NetPartitionDrops == 0 {
		t.Fatal("the fabric dropped nothing across the partition")
	}
	if rep.Retried == 0 || rep.Failed != 0 || rep.Stale != 0 {
		t.Fatalf("reads did not fail over: %d retried, %d failed, %d empty", rep.Retried, rep.Failed, rep.Stale)
	}
}

// TestRunRejectsPartitionWithMoves: a partition drops dispatches the
// router still counts in flight, so a shard frozen for a move or a ring
// change could never drain.
func TestRunRejectsPartitionWithMoves(t *testing.T) {
	cut := []shard.Window{{From: time.Millisecond, To: 2 * time.Millisecond}}
	for _, sched := range []shard.Schedule{
		{Partitions: cut, Moves: []shard.Move{{At: time.Millisecond}}},
		{Partitions: cut, RingChanges: []shard.RingChange{{At: time.Millisecond}}},
	} {
		_, err := shard.Run(shard.Config{System: "kvstore", Shards: 1, Replicas: 3, Spares: 1, Seed: 1,
			Profile: shard.Profile{Proto: &readGen{}, RunFor: 5 * time.Millisecond}}, registry.Factories(1)["kvstore"], sched)
		if err == nil || !strings.Contains(err.Error(), "partitions") {
			t.Fatalf("schedule %+v: want a rejection, got %v", sched, err)
		}
	}
}
