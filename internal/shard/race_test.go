package shard_test

// Race-hammers for the fabric: each run is single-threaded by design (one
// simclock drives the router, the open-loop frontend, node recovery, and
// the migration state machines), so the concurrency hazard worth hunting is
// shared package state — a stray global in the ring, router, kernel
// migration, or app layers that two independent fabrics would stomp. Each
// test runs full fabrics of one shape concurrently under -race:
// TestShardRaceHammer sharded runs with kills, moves, and ring changes,
// TestClusterRaceHammer one-shard runs with a kill, a drain, a partition,
// and a snapshot read. Both require same-seed runs to stay byte-identical
// even while racing each other, and check no goroutine outlives the runs.

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

func hammerOnce(t *testing.T, seed int64, group bool) shard.Report {
	t.Helper()
	cfg, mk, _ := smokeConfig(seed, recovery.ModePhoenix)
	d := cfg.Profile.RunFor
	// Kill-and-rebalance heavy: every shard is either killed or moved.
	sched := shard.Schedule{
		Kills: []shard.Kill{
			{At: d / 4, Shard: 0, Replica: 0},
			{At: d / 3, Shard: 1, Replica: 1},
			{At: d / 2, Shard: 2, Replica: 0},
		},
		Moves:       []shard.Move{{At: d * 2 / 5, Shard: 3, Replica: 1}},
		RingChanges: []shard.RingChange{{At: d * 3 / 5, Shard: 1}},
	}
	if group {
		cfg.Shards, cfg.Replicas, cfg.Spares = 1, 3, 0
		cfg.Profile.ArrivalMean = 120 * time.Microsecond
		sched = shard.Schedule{
			Kills:         []shard.Kill{{At: d / 4, Replica: 0}},
			Drains:        []shard.Window{{From: d * 2 / 5, To: d * 3 / 5, Replica: 2}},
			Partitions:    []shard.Window{{From: d * 3 / 4, To: d * 9 / 10, Replica: 1}},
			SnapshotReads: []shard.SnapshotRead{{At: d / 2, Replica: 1, Readers: 4}},
		}
	}
	rep, err := shard.Run(cfg, mk, sched)
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return shard.Report{}
	}
	return rep
}

// raceHammer runs three seeds of one shape twice each, all concurrently,
// byte-compares the same-seed pairs, hands each seed's report and JSON to
// check, and then fails on any goroutine the runs left behind.
func raceHammer(t *testing.T, group bool, check func(seed int64, rep shard.Report, js []byte)) {
	before := runtime.NumGoroutine()

	// 3 seeds × 2 concurrent runs each: the duplicate pairs double as a
	// determinism check under contention.
	const seedCount, dup = 3, 2
	reports := make([]shard.Report, seedCount*dup)
	var wg sync.WaitGroup
	for i := range reports {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i] = hammerOnce(t, int64(i%seedCount)+1, group)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for s := 0; s < seedCount; s++ {
		seed := int64(s) + 1
		a, b := reports[s], reports[s+seedCount]
		ja, err := a.JSON()
		if err != nil {
			t.Fatal(err)
		}
		jb, err := b.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("seed %d: concurrent same-seed runs diverged:\n%s\n%s", seed, ja, jb)
		}
		if a.Requests == 0 || a.NonOwnerServes != 0 || a.LostAcked != 0 {
			t.Fatalf("seed %d: hammer run served nothing or broke an oracle: %s", seed, a)
		}
		check(seed, a, ja)
	}

	// Goroutine-leak check: nothing the runs started may outlive them. A few
	// settle retries tolerate runtime-internal goroutines winding down.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShardRaceHammer(t *testing.T) {
	raceHammer(t, false, func(seed int64, a shard.Report, _ []byte) {
		if a.Kills != 3 || a.MovesCompleted == 0 {
			t.Fatalf("seed %d: sharded hammer run killed or moved nothing: %s", seed, a)
		}
	})
}

func TestClusterRaceHammer(t *testing.T) {
	raceHammer(t, true, func(seed int64, a shard.Report, ja []byte) {
		if a.Kills != 1 || a.Unrecovered != 0 || a.DrainRefusals == 0 || a.SnapshotReads == 0 ||
			a.PartitionResponses != 0 || a.NetPartitionDrops == 0 || a.SnapshotStale != 0 {
			t.Fatalf("seed %d: one-shard hammer run missed its kill, drain, partition or snapshot read: %s\n%s", seed, a, ja)
		}
		for _, nd := range a.Nodes {
			if nd.Accepted == 0 {
				t.Fatalf("seed %d: replica %d accepted nothing: %s", seed, nd.Replica, ja)
			}
		}
	})
}
