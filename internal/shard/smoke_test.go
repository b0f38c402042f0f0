package shard_test

import (
	"testing"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

func smokeConfig(seed int64, mode recovery.Mode) (shard.Config, recovery.AppFactory, shard.Schedule) {
	prof := registry.ShardProfile("kvstore", seed)
	prof.RunFor = 120 * time.Millisecond
	cfg := shard.Config{
		System:   "kvstore",
		Shards:   4,
		Replicas: 2,
		Spares:   2,
		Seed:     seed,
		Recovery: recovery.Config{Mode: mode, CheckpointInterval: 2 * time.Millisecond},
		Profile:  prof,
	}
	sched := shard.DefaultSchedule(cfg.Profile, cfg.Shards, cfg.Replicas, cfg.Spares)
	return cfg, registry.Factories(seed)["kvstore"], sched
}

// TestFabricSmoke drives one PHOENIX fabric through the default schedule and
// checks the basic shape of the run: traffic flowed, the kills recovered,
// the moves completed, and the two inline oracles stayed quiet.
func TestFabricSmoke(t *testing.T) {
	cfg, mk, sched := smokeConfig(7, recovery.ModePhoenix)
	rep, err := shard.Run(cfg, mk, sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", rep)
	if rep.Requests == 0 || rep.Served == 0 {
		t.Fatalf("no traffic served: %s", rep)
	}
	if rep.Kills != len(sched.Kills) {
		t.Fatalf("kills = %d, want %d", rep.Kills, len(sched.Kills))
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("PHOENIX left %d kill(s) unrecovered: %s", rep.Unrecovered, rep)
	}
	if rep.MovesCompleted == 0 {
		t.Fatalf("no shard move completed (skipped=%d aborted=%d): %+v",
			rep.MovesSkipped, rep.MovesAborted, rep.MoveReports)
	}
	if rep.NonOwnerServes != 0 {
		t.Fatalf("%d non-owner serves", rep.NonOwnerServes)
	}
	if rep.LostAcked != 0 {
		t.Fatalf("%d acked writes lost (keys %v)", rep.LostAcked, rep.LostKeys)
	}
	if rep.LedgerChecked == 0 {
		t.Fatal("lost-write oracle audited nothing")
	}
	for _, mr := range rep.MoveReports {
		if mr.Completed && len(mr.Rounds) == 0 {
			t.Fatalf("PHOENIX move %d/%d completed without background delta rounds", mr.Shard, mr.Replica)
		}
	}
}

// TestFabricSmokeVanilla checks the stop-and-copy degradation: completed
// moves ship everything inside the freeze (no background rounds) and the
// frozen window exceeds the PHOENIX one for the same schedule and seed.
func TestFabricSmokeVanilla(t *testing.T) {
	pcfg, mk, sched := smokeConfig(7, recovery.ModePhoenix)
	prep, err := shard.Run(pcfg, mk, sched)
	if err != nil {
		t.Fatal(err)
	}
	vcfg, mk, _ := smokeConfig(7, recovery.ModeVanilla)
	vrep, err := shard.Run(vcfg, mk, sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("phoenix: %s", prep)
	t.Logf("vanilla: %s", vrep)
	if vrep.MovesCompleted == 0 {
		t.Fatalf("vanilla completed no moves: %+v", vrep.MoveReports)
	}
	for _, mr := range vrep.MoveReports {
		if mr.Completed && len(mr.Rounds) != 0 {
			t.Fatalf("vanilla move %d/%d ran %d background rounds", mr.Shard, mr.Replica, len(mr.Rounds))
		}
	}
	if prep.MigrateCutoverUs >= vrep.MigrateCutoverUs {
		t.Fatalf("PHOENIX cutover %dµs not shorter than vanilla stop-and-copy %dµs",
			prep.MigrateCutoverUs, vrep.MigrateCutoverUs)
	}
	if prep.AvailabilityPct <= vrep.AvailabilityPct {
		t.Fatalf("PHOENIX availability %.3f%% not above vanilla %.3f%%",
			prep.AvailabilityPct, vrep.AvailabilityPct)
	}
}
