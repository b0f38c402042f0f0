package experiments

import (
	"phoenix/internal/shard"
)

// RunFigCluster measures availability under traffic for one replica group:
// for every registered application, the serving fabric in its one-shard
// shape (three replicas, no spares) serves an open-loop client population
// over a simulated network while the identical kill/drain/partition
// schedule is replayed against PHOENIX, the application's builtin recovery,
// and a vanilla restart. The shard-aware router spreads reads over the
// group by key slot and fans every write out to all three replicas. The
// figure reports per-mode availability, latency percentiles, total
// unavailability (kill until the replica's first effective read) split
// into recovery, readmission and first read, and failed requests — the
// cluster-scale version of Figure 10's per-process availability
// comparison.
//
// The run doubles as the campaign's contract check: CheckShard asserts the
// availability ordering, that every PHOENIX kill recovers to effective
// service and is readmitted one delivery after the node serves again, that
// a kill window closes only on a post-kill effective read, that the
// drained replica refuses reads, and that no response crosses the
// partition.
func RunFigCluster(o Options) error {
	// One storage, one cache, one compute system keeps the quick profile
	// representative.
	return runFabricFigure(o, shard.Options{Shards: 1, Replicas: 3}, "kvstore", "webcache-varnish", "boost")
}
