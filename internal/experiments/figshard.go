package experiments

import (
	"fmt"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// RunFigShard measures the sharded serving fabric: for each shardable
// application, a consistent-hash ring of per-shard replica groups serves an
// open-loop client population while the identical kill-and-rebalance
// schedule — replica kills, a live shard migration, and a ring change, all
// mid-traffic — is replayed against PHOENIX, the application's builtin
// recovery, and a vanilla restart. The figure reports per-mode
// availability, latency percentiles, total unavailability split into
// recovery, readmission and first read, the migration cutover window, and
// the per-move delta-round trajectory; the per-shard kill windows show the
// sharding dividend over the whole-replica groups of figcluster.
//
// The run doubles as the campaign's contract check: CheckShard asserts the
// availability ordering, that PHOENIX's delta-converged cutover beats the
// non-preserving modes' stop-and-copy, and that no acked write is lost and
// no request is served by a non-owner. The full run, when it includes
// kvstore, ends with migrationSweep.
func RunFigShard(o Options) (any, error) {
	o.fill()
	res, err := runFabricFigure(o, shard.Options{Shards: 4, Replicas: 2, Spares: 2})
	if err != nil || o.Quick || (o.App != "" && o.App != "kvstore") {
		return res, err
	}
	return res, migrationSweep(o)
}

// migrationSweep prints how one PHOENIX live move scales with the shard
// it moves: kvstore with a 16 MiB dataset (4,096 values of 4 KiB) on
// fabrics of 2, 4 and 8 shards of 2 replicas and one spare, moving shard
// 0's second replica at 50 ms of a 250 ms traffic window. The pages held
// and shipped track the shard's arc; the cutover tracks the final delta
// and the successor's install, not the arc.
func migrationSweep(o Options) error {
	ycsb := workload.NewYCSB(workload.YCSBConfig{
		Seed: o.Seed, Records: 4096, ReadFrac: 0.9, InsertFrac: 0.02,
		ValueSize: 4096, ZipfianKeys: true,
	})
	p := shard.Profile{Proto: ycsb, Warm: ycsb.LoadRequests(), RunFor: 250 * time.Millisecond}
	fmt.Fprintf(o.Out, "kvstore migration vs shard size (16MiB dataset, one move at 50ms, seed %d)\n", o.Seed)
	fmt.Fprintf(o.Out, "  %-8s %-12s %-14s %-15s %-13s %s\n", "shards", "pages held", "delta rounds", "pages shipped", "final delta", "cutover")
	for _, shards := range []int{2, 4, 8} {
		rep, err := shard.Run(shard.Config{
			System: "kvstore", Shards: shards, Replicas: 2, Spares: 1, Seed: o.Seed,
			Recovery: recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: 2 * time.Millisecond},
			Profile:  p,
		}, registry.Factories(o.Seed)["kvstore"], shard.Schedule{Moves: []shard.Move{{At: 50 * time.Millisecond, Shard: 0, Replica: 1}}})
		if err != nil {
			return err
		}
		if len(rep.MoveReports) != 1 || !rep.MoveReports[0].Completed {
			return fmt.Errorf("figshard: migration sweep at %d shards: want one completed move, got %+v", shards, rep.MoveReports)
		}
		mv := rep.MoveReports[0]
		fmt.Fprintf(o.Out, "  %-8d %-12d %-14d %-15d %-13d %dµs\n", shards, mv.Pages, len(mv.Rounds), mv.ShippedPages, mv.FinalDelta, mv.CutoverUs)
	}
	return nil
}

// fabricSystems returns the systems registry.Systems gives a fabric of the
// given shard count, or only the o.App one.
func fabricSystems(o Options, shards int) ([]shard.System, error) {
	return only(registry.Systems(o.Seed, shards), func(s shard.System) string { return s.Name }, o.App)
}

// runFabricFigure runs the fabric campaign in one shape over fabricSystems
// and prints each system's comparison, PHOENIX kill windows and completed
// moves. Quick and full runs are the same campaign.
func runFabricFigure(o Options, shape shard.Options) (any, error) {
	o.fill()
	shape.Seed = o.Seed
	systems, err := fabricSystems(o, shape.Shards)
	if err != nil {
		return nil, err
	}
	res, err := shard.CheckShard(systems, shape)
	for _, r := range res {
		fmt.Fprintf(o.Out, "%s\n", shard.FmtComparison(r))
		for _, w := range r.Phoenix.Windows {
			state := "recovered"
			if !w.Closed {
				state = "unrecovered at run end"
			}
			rc, ra, fr := w.Split()
			fmt.Fprintf(o.Out, "  phoenix shard %d/%d (node %d): unavailable %dµs = recovery %dµs + readmission %dµs + first read %dµs, rung %s (%s)\n",
				w.Shard, w.Replica, w.Node, w.DurUs, rc, ra, fr, w.Rung, state)
		}
		for _, mv := range r.Phoenix.MoveReports {
			if !mv.Completed {
				continue
			}
			fmt.Fprintf(o.Out, "  phoenix move shard %d (%s): %d delta rounds, %d pages shipped, final delta %d, cutover %dµs\n",
				mv.Shard, mv.Reason, len(mv.Rounds), mv.ShippedPages, mv.FinalDelta, mv.CutoverUs)
		}
	}
	return res, err
}
