package experiments

import (
	"fmt"

	"phoenix/internal/explore"
)

// RunFigExplore runs the deterministic exploration campaign: a seed sweep in
// which every seed expands into a randomized fault schedule (preserve-path
// faults, bit-flip corruption, replica kills, drains, partitions at random
// simclock instants), runs against a randomly drawn registry application on
// a single harness or on a one-shard serving fabric, and is judged by the
// invariant oracles. Violating seeds are shrunk to minimal schedules and each minimal
// artifact is re-verified to replay byte-identically — the search-based
// complement to the scripted campaigns behind Tables 6-7.
//
// The full profile (1000 seeds) produced the seeds-vs-violations table in
// EXPERIMENTS.md; Quick keeps CI at a 50-seed smoke.
func RunFigExplore(o Options) error {
	o.fill()
	opts := explore.Options{Seeds: 1000, Start: o.Seed}
	if o.Quick {
		opts.Seeds = 50
	}
	sum, err := explore.CheckExplore(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "%s\n", explore.FmtSummary(sum))
	return nil
}
