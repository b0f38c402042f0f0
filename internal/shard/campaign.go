package shard

import (
	"bytes"
	"fmt"
	"slices"

	"phoenix/internal/recovery"
)

// This file implements the fabric availability campaign: for each
// registered application, replay the identical schedule (DefaultSchedule for
// the fabric's shape) against a PHOENIX fabric, a builtin-recovery fabric and
// a vanilla fabric under the same open-loop client population, and check the
// serving contract. The sharded shape moves shards; the one-shard cluster
// shape drains and partitions a replica instead. Which clauses apply follows
// from the schedule.

// System pairs an application factory with its fabric workload profile. The
// campaign's caller wires these from the app registry; the shard package
// cannot import the registry itself (the registry depends on this package
// for the profile type).
type System struct {
	Name    string
	Factory recovery.AppFactory
	Profile Profile
}

// Options parameterises CheckShard. The shape is taken as given; zero
// fields take Config's defaults.
type Options struct {
	Seed     int64
	Shards   int
	Replicas int
	Spares   int
}

// Result holds one system's three mode reports.
type Result struct {
	System  string `json:"system"`
	Phoenix Report `json:"phoenix"`
	Builtin Report `json:"builtin"`
	Vanilla Report `json:"vanilla"`
}

// CheckShard runs the campaign for the given systems and returns the first
// contract violation found.
func CheckShard(systems []System, o Options) ([]Result, error) {
	var results []Result
	for _, sys := range systems {
		res, err := checkSystem(sys, o)
		results = append(results, res)
		if err != nil {
			return results, fmt.Errorf("fabric campaign: %s: %w", sys.Name, err)
		}
	}
	return results, nil
}

func checkSystem(sys System, o Options) (Result, error) {
	cfg := Config{
		System:   sys.Name,
		Shards:   o.Shards,
		Replicas: o.Replicas,
		Spares:   o.Spares,
		Seed:     o.Seed,
		Profile:  sys.Profile,
	}
	cfg.fill()
	sched := DefaultSchedule(cfg.Profile, cfg.Shards, cfg.Replicas, cfg.Spares)
	run := func(rcfg recovery.Config) (Report, error) {
		c := cfg
		c.Recovery = rcfg
		return Run(c, sys.Factory, sched)
	}

	res := Result{System: sys.Name}
	ci := cfg.Profile.CheckpointInterval
	var err error
	if res.Phoenix, err = run(recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: ci}); err != nil {
		return res, err
	}
	if res.Builtin, err = run(recovery.Config{Mode: recovery.ModeBuiltin, CheckpointInterval: ci}); err != nil {
		return res, err
	}
	if res.Vanilla, err = run(recovery.Config{Mode: recovery.ModeVanilla}); err != nil {
		return res, err
	}

	p, b, v := res.Phoenix, res.Builtin, res.Vanilla
	switch {
	case p.Requests == 0 || b.Requests == 0 || v.Requests == 0:
		return res, fmt.Errorf("a mode served no traffic (phoenix=%d builtin=%d vanilla=%d requests)",
			p.Requests, b.Requests, v.Requests)
	case p.Kills == 0:
		return res, fmt.Errorf("schedule killed nothing — the campaign exercised no recovery")
	case p.AvailabilityPct <= v.AvailabilityPct:
		return res, fmt.Errorf("PHOENIX availability %.3f%% does not strictly exceed vanilla %.3f%%\n  phoenix: %s\n  vanilla: %s",
			p.AvailabilityPct, v.AvailabilityPct, p, v)
	case p.UnavailTotalUs >= v.UnavailTotalUs:
		return res, fmt.Errorf("PHOENIX unavailability %dµs did not shrink vs vanilla %dµs", p.UnavailTotalUs, v.UnavailTotalUs)
	case p.Unrecovered > 0:
		return res, fmt.Errorf("PHOENIX left %d kill(s) unrecovered to effective service", p.Unrecovered)
	}
	// The campaign runs without link faults, so every up notice lands: a
	// recovered PHOENIX node is readmitted one fabric delivery after it
	// serves again, with no probe wait, and rejoins sooner than a node
	// that rebuilt its state.
	delivery := (linkLatency + linkJitter).Microseconds()
	for _, w := range p.Windows {
		if _, readmit, _ := w.Split(); readmit > delivery {
			return res, fmt.Errorf("PHOENIX node %d was readmitted %dµs after it served again, later than one fabric delivery (%dµs)", w.Node, readmit, delivery)
		}
	}
	if pr, br, vr := medianRejoinUs(p), medianRejoinUs(b), medianRejoinUs(v); pr >= br || pr >= vr {
		return res, fmt.Errorf("PHOENIX median rejoin (kill to readmission) %dµs not below builtin %dµs and vanilla %dµs", pr, br, vr)
	}
	if len(sched.Moves) > 0 {
		switch {
		case p.MovesCompleted == 0:
			return res, fmt.Errorf("PHOENIX completed no shard moves — the campaign exercised no migration")
		case v.MovesCompleted == 0:
			return res, fmt.Errorf("vanilla completed no shard moves — no stop-and-copy baseline to compare against")
		case p.MigrateCutoverUs >= v.MigrateCutoverUs:
			// The cutover (final ship + install + adopting boot) is the
			// drain-free part of the freeze: its cost is a pure function of
			// what still had to move, so preserve-riding delta rounds must
			// beat stop-and-copy here. (The full frozen window additionally
			// includes the traffic-dependent drain wait, which is
			// mode-independent noise.)
			return res, fmt.Errorf("PHOENIX migration cutover %dµs not shorter than vanilla stop-and-copy %dµs — preserve-riding delta rounds bought nothing",
				p.MigrateCutoverUs, v.MigrateCutoverUs)
		}
	}
	for _, rep := range []Report{p, b, v} {
		if err := checkReport(rep, sched); err != nil {
			return res, fmt.Errorf("%s: %w", rep.Mode, err)
		}
	}
	return res, nil
}

// medianRejoinUs is the median over a run's kill windows of the time from
// the kill until the router readmitted the node.
func medianRejoinUs(rep Report) int64 {
	var rejoin []int64
	for _, w := range rep.Windows {
		rejoin = append(rejoin, w.ReadmitUs-w.StartUs)
	}
	if len(rejoin) == 0 {
		return 0
	}
	slices.Sort(rejoin)
	return rejoin[(len(rejoin)-1)/2]
}

// checkReport holds one mode's run to the clauses every mode shares.
func checkReport(rep Report, sched Schedule) error {
	// A window closes only on an effective read the killed node computed
	// after the kill, so a once-killed node's window cannot close before
	// the node is back.
	for _, w := range rep.Windows {
		if nd := rep.Nodes[w.Node]; w.Closed && nd.Kills == 1 && w.DurUs < nd.RecoveryUs {
			return fmt.Errorf("node %d's kill window closed after %dµs, inside its %dµs recovery", w.Node, w.DurUs, nd.RecoveryUs)
		}
	}
	switch {
	case rep.NonOwnerServes != 0:
		return fmt.Errorf("%d request(s) served by a non-owner across ownership flips", rep.NonOwnerServes)
	case rep.LostAcked != 0:
		return fmt.Errorf("%d acknowledged write(s) lost across migration (keys %v)", rep.LostAcked, rep.LostKeys)
	case len(sched.Moves) > 0 && rep.LedgerChecked == 0:
		return fmt.Errorf("lost-write oracle audited nothing — no acked writes landed on migrated shards")
	case len(sched.Drains) > 0 && rep.DrainRefusals == 0:
		return fmt.Errorf("drain window was never exercised (no refusals)")
	case rep.PartitionResponses != 0:
		return fmt.Errorf("partitioned node delivered %d response(s)", rep.PartitionResponses)
	case len(sched.Partitions) > 0 && rep.NetPartitionDrops == 0:
		return fmt.Errorf("partition window was never exercised (no fabric drops)")
	}
	return nil
}

// FmtComparison renders one result as the availability table the campaign
// and the figcluster and figshard experiments print. Each mode's total
// unavailability is split into recovery, readmission and first read, summed
// over its kill windows.
func FmtComparison(res Result) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s (shards=%d×%d, clients=%d, kills=%d, moves=%d)\n",
		res.System, res.Phoenix.Shards, res.Phoenix.Replicas, res.Phoenix.Population,
		res.Phoenix.Kills, res.Phoenix.Moves+res.Phoenix.RingChanges)
	fmt.Fprintf(&buf, "  %-8s %10s %8s %8s %8s %12s %11s %9s %10s %10s %6s\n",
		"mode", "avail", "p50", "p99", "p999", "unavail", "recovery", "readmit", "1st read", "cutover", "fail")
	for _, rep := range []Report{res.Phoenix, res.Builtin, res.Vanilla} {
		var recovery, readmit, firstRead int64
		for _, w := range rep.Windows {
			rc, ra, fr := w.Split()
			recovery, readmit, firstRead = recovery+rc, readmit+ra, firstRead+fr
		}
		fmt.Fprintf(&buf, "  %-8s %9.3f%% %7dµs %7dµs %7dµs %11dµs %10dµs %8dµs %9dµs %9dµs %6d\n",
			rep.Mode, rep.AvailabilityPct, rep.P50Us, rep.P99Us, rep.P999Us,
			rep.UnavailTotalUs, recovery, readmit, firstRead, rep.MigrateCutoverUs, rep.Failed)
	}
	return buf.String()
}
