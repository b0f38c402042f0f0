package experiments

import (
	"fmt"

	"phoenix/internal/apps/registry"
	"phoenix/internal/shard"
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
// no request is served by a non-owner.
func RunFigShard(o Options) (any, error) {
	return runFabricFigure(o, shard.Options{Shards: 4, Replicas: 2, Spares: 2})
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
