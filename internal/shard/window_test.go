package shard_test

import (
	"fmt"
	"testing"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/faultinject"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// TestPerShardKillWindowSmallerThanWholeReplica is the sharding dividend:
// the same application, seed, and dataset, killed at the same instant under
// PHOENIX, must reopen faster when the victim owns one shard's arc of a
// 4×2 fabric than when it owns the whole keyspace of a 1×2 one. The state-dependent parts of
// recovery — the preserve scan and checksum walk over the heap, the
// mark-and-sweep cleanup over live records — scale with what the node
// holds, and a 4-shard fabric gives each node a quarter of it. The dataset
// is sized (16 MiB of values) so that margin dwarfs the shared fixed costs
// (PhoenixBootCost, probe rediscovery) and scheduling jitter.
func TestPerShardKillWindowSmallerThanWholeReplica(t *testing.T) {
	const (
		records   = 4096
		valueSize = 4096
		seed      = 11
		shards    = 4
		replicas  = 2
	)
	killAt := 50 * time.Millisecond
	runFor := 250 * time.Millisecond

	mk := func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
		kv := kvstore.New(kvstore.Config{Cleanup: true}, inj)
		gen := workload.NewYCSB(workload.YCSBConfig{
			Seed: seed, Records: records, ReadFrac: 0.9, InsertFrac: 0.02,
			ValueSize: valueSize, ZipfianKeys: true,
		})
		return kv, gen
	}
	var warm []*workload.Request
	for i := uint64(0); i < records; i++ {
		key := fmt.Sprintf("user%010d", i)
		warm = append(warm, &workload.Request{
			Seq: i + 1, Op: workload.OpInsert, Key: key,
			Value: workload.Value(key, 1, valueSize),
		})
	}
	proto := workload.NewYCSB(workload.YCSBConfig{
		Seed: seed, Records: records, ReadFrac: 0.9, InsertFrac: 0.02,
		ValueSize: valueSize, ZipfianKeys: true,
	})
	rcfg := recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: 2 * time.Millisecond}

	run := func(shards int) shard.Report {
		t.Helper()
		rep, err := shard.Run(shard.Config{
			System:   "kvstore",
			Shards:   shards,
			Replicas: replicas,
			Seed:     seed,
			Recovery: rcfg,
			Profile:  shard.Profile{Proto: proto, Warm: warm, RunFor: runFor},
		}, mk, shard.Schedule{Kills: []shard.Kill{{At: killAt, Shard: 0, Replica: 0}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Windows) != 1 || !rep.Windows[0].Closed {
			t.Fatalf("%d-shard run: want one closed kill window, got %+v", shards, rep.Windows)
		}
		return rep
	}
	// Node 0 (shard 0, replica 0) warms, and on the kill preserves, every
	// record in the one-shard fabric but only shard 0's arc in the 4-shard
	// one.
	whole, sharded := run(1).Windows[0], run(shards).Windows[0]
	t.Logf("whole-replica window %dµs, per-shard window %dµs", whole.DurUs, sharded.DurUs)
	if sharded.DurUs >= whole.DurUs {
		t.Fatalf("per-shard kill window %dµs not smaller than whole-replica window %dµs",
			sharded.DurUs, whole.DurUs)
	}
}
