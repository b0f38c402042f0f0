package explore

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/netsim"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

// Violation is one oracle failure, attributed to the oracle that found it.
type Violation struct {
	Oracle string `json:"oracle"`
	Msg    string `json:"msg"`
}

// Outcome is the deterministic result of running one schedule: the schedule
// itself, a compact run summary, and every oracle violation. Equal schedules
// produce byte-identical JSON encodings of equal outcomes.
type Outcome struct {
	Schedule         Schedule    `json:"schedule"`
	Requests         int         `json:"requests"`
	Recoveries       int         `json:"recoveries"`
	CorruptionsFired int         `json:"corruptions_fired"`
	OpFaultsFired    int         `json:"op_faults_fired"`
	FinalLevel       string      `json:"final_level,omitempty"`
	Terminated       string      `json:"terminated,omitempty"`
	Violations       []Violation `json:"violations"`
}

// Run executes one schedule and judges it against the application's oracles.
// The returned error reports infrastructure problems only (an unbootable app,
// a crash that did not register); oracle violations are data, not errors.
func Run(sch Schedule) (Outcome, error) {
	var (
		obs *registry.Observation
		err error
	)
	switch sch.Mode {
	case "shard":
		obs, err = runShard(sch)
	case "single":
		obs, err = runSingle(sch)
	default:
		return Outcome{}, fmt.Errorf("explore: unknown schedule mode %q", sch.Mode)
	}
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Schedule:         sch,
		Requests:         obs.Stats.Requests,
		Recoveries:       len(obs.Recoveries),
		CorruptionsFired: obs.CorruptionsFired,
		OpFaultsFired:    obs.OpFaultsFired,
		FinalLevel:       obs.FinalLevel.String(),
		Terminated:       obs.Terminated,
		Violations:       []Violation{},
	}
	if obs.Shard != nil {
		out.Requests = obs.Shard.Requests
		out.Recoveries = obs.Shard.Kills
		out.FinalLevel = ""
	}
	oracles := registry.OraclesFor(sch.App)
	if sch.Mode == "shard" {
		oracles = registry.ShardOracles()
	}
	for _, oracle := range oracles {
		for _, msg := range oracle.Check(obs) {
			out.Violations = append(out.Violations, Violation{Oracle: oracle.Name(), Msg: msg})
		}
	}
	return out, nil
}

// runSingle drives one supervised PHOENIX harness through the schedule:
// requests are served in order, and each event fires just before the request
// index it names. Kills go through the real failure-handling path, so the
// run exercises preserve_exec, the fallback taxonomy, and the escalation
// ladder exactly as production recovery would.
func runSingle(sch Schedule) (*registry.Observation, error) {
	mk, ok := registry.Factories(sch.Seed)[sch.App]
	if !ok {
		return nil, fmt.Errorf("explore: unknown app %q", sch.App)
	}
	m := kernel.NewMachine(sch.Seed)
	// Shadow every incremental verification with the full checksum walk: any
	// mismatch the delta protocol would miss shows up as an
	// incremental_audit_divergences count for the accounting oracle.
	m.AuditIncremental = true
	inj := faultinject.New()
	app, gen := mk(inj)
	cfg := recovery.Config{
		Mode:      recovery.ModePhoenix,
		Supervise: true,
		Supervisor: recovery.SupervisorConfig{
			BreakerK:     3,
			Window:       60 * time.Second,
			BackoffBase:  100 * time.Millisecond,
			BackoffMax:   2 * time.Second,
			StablePeriod: 30 * time.Second,
			RetryBudget:  16,
		},
		DisableChecksums:   sch.DisableChecksums,
		CheckpointInterval: 5 * time.Millisecond,
	}
	if sch.Domains {
		cfg.RewindDomains = true
		cfg.Supervisor.Floor = recovery.LevelRewind
	}
	h := recovery.NewHarness(m, cfg, app, gen, inj)
	if err := h.Boot(); err != nil {
		return nil, fmt.Errorf("explore: %s boot: %w", sch.App, err)
	}

	obs := &registry.Observation{
		App:               sch.App,
		Seed:              sch.Seed,
		ChecksumsDisabled: sch.DisableChecksums,
		Floor:             cfg.Supervisor.Floor,
		Domains:           sch.Domains,
	}

	// verifyComponents runs the application's cross-component invariant after
	// a recovery episode. It runs on the offline clock (an oracle must not
	// perturb the timeline) and only on checksummed runs — with verification
	// off, a silently committed bit flip may legitimately corrupt component
	// state, which is the accounting oracle's finding, not a dangling-state
	// bug. A simulated crash *inside* the verifier is itself a violation: the
	// invariant walk dereferenced dangling state.
	verifyComponents := func(where string) {
		ca, ok := app.(recovery.ComponentApp)
		if !ok || sch.DisableChecksums {
			return
		}
		m.Clock.RunOffline(func() {
			var verr error
			ci := h.Proc().Run(func() { verr = ca.VerifyComponents() })
			switch {
			case ci != nil:
				obs.ComponentViolations = append(obs.ComponentViolations,
					fmt.Sprintf("%s: component verification crashed: %s", where, ci.Reason))
			case verr != nil:
				obs.ComponentViolations = append(obs.ComponentViolations,
					fmt.Sprintf("%s: %v", where, verr))
			}
		})
	}
	armed := make(map[string]bool)
	// collect retires one arming: if its fault fired, credit the right
	// ground-truth counter and clear the latch so the site can be re-armed.
	collect := func(site string) {
		if !armed[site] {
			return
		}
		if inj.Fired(site) {
			if site == faultinject.SitePreserveCorrupt {
				obs.CorruptionsFired++
			} else {
				obs.OpFaultsFired++
			}
		}
		inj.Disarm(site)
		delete(armed, site)
	}

	// recordRecovery classifies the stat movement of one episode. A clean
	// preserve is exactly one PHOENIX restart and nothing else; everything
	// else lost in-memory state somewhere.
	recordRecovery := func(atStep int, before recovery.Stats) {
		d := h.Stat
		fallbacks := (d.UnsafeFallbacks - before.UnsafeFallbacks) +
			(d.GraceFallbacks - before.GraceFallbacks) +
			(d.CrossFallbacks - before.CrossFallbacks) +
			(d.RecoveryFaultFallbacks - before.RecoveryFaultFallbacks) +
			(d.IntegrityFallbacks - before.IntegrityFallbacks) +
			(d.OtherRestarts - before.OtherRestarts) +
			(d.BootFailures - before.BootFailures)
		obs.Recoveries = append(obs.Recoveries, registry.RecoveryRecord{
			AtStep:        atStep,
			CleanPreserve: d.PhoenixRestarts-before.PhoenixRestarts == 1 && fallbacks == 0,
			Level:         h.EscalationLevel().String(),
			Fallbacks:     fallbacks,
			Escalated:     d.Escalations > before.Escalations,
			Deescalated:   d.Deescalations > before.Deescalations,
		})
		verifyComponents(fmt.Sprintf("after recovery at step %d", atStep))
	}

	terminal := func(err error) (bool, error) {
		if err == nil {
			return false, nil
		}
		if strings.Contains(err.Error(), "retry budget exhausted") {
			obs.Terminated = err.Error()
			return true, nil
		}
		return false, err
	}

	ei := 0
	done := false
	for i := 0; i < sch.Steps && !done; i++ {
		for ei < len(sch.Events) && sch.Events[ei].At <= i {
			ev := sch.Events[ei]
			ei++
			switch ev.Kind {
			case KindCalm:
				m.Clock.Advance(time.Duration(ev.DurUs) * time.Microsecond)
			case KindArm:
				collect(ev.Site)
				spec, ok := kernel.PreserveSiteSpec(ev.Site)
				if !ok {
					return nil, fmt.Errorf("explore: arm event names unknown site %q", ev.Site)
				}
				inj.ArmAfter(ev.Site, spec.Type, ev.Skip)
				inj.Enable()
				armed[ev.Site] = true
			case KindComponentKill:
				ca, ok := app.(recovery.ComponentApp)
				if !ok {
					return nil, fmt.Errorf("explore: componentkill event but %s declares no components", sch.App)
				}
				ca.ArmComponentCrash(ev.Site)
			case KindDomainFault:
				ba, ok := app.(interface{ ArmBug(string) })
				if !ok {
					return nil, fmt.Errorf("explore: domainfault event but %s has no scripted bugs", sch.App)
				}
				ba.ArmBug(ev.Site)
			case KindKill:
				before := h.Stat
				stop, err := terminal(h.Kill())
				if err != nil {
					return nil, fmt.Errorf("explore: recovery surfaced a simulator error: %w", err)
				}
				recordRecovery(i, before)
				if stop {
					done = true
				}
			default:
				return nil, fmt.Errorf("explore: event %s invalid in single mode", ev)
			}
			if done {
				break
			}
		}
		if done {
			break
		}
		req := h.Gen.Next()
		before := h.Stat
		ok, eff, err := h.ServeRequest(req)
		if stop, err := terminal(err); err != nil {
			return nil, fmt.Errorf("explore: step %d: %w", i, err)
		} else if stop {
			done = true
		}
		// An organic crash inside the request (e.g. structures corrupted by a
		// silently committed bit flip) recovered in-line; the episode applies
		// to every step after this one.
		if h.Stat.Failures > before.Failures {
			recordRecovery(i+1, before)
		}
		obs.Steps = append(obs.Steps, registry.TraceStep{
			Index: i, Op: req.Op.String(), Key: req.Key, OK: ok, Effective: eff,
		})
	}

	sites := make([]string, 0, len(armed))
	for s := range armed {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for _, s := range sites {
		collect(s)
	}

	obs.Stats = h.Stat
	obs.Counters = m.Counters.Snapshot()
	obs.FinalLevel = h.EscalationLevel()
	return obs, nil
}

// shardRunFor overrides the sharded profile's traffic window for explored
// schedules: long enough that kills, migrations, and ring changes all land
// inside open-loop load, short enough that a 500-seed sweep stays cheap.
// GenerateShard draws its event instants against the same window. A
// one-shard schedule keeps its profile's window (fabricSystem).
const shardRunFor = 120 * time.Millisecond

// fabricSystem returns the named application's factory and profile on a
// fabric of the given shard count, with the traffic window explored
// schedules run for.
func fabricSystem(seed int64, app string, shards int) (shard.System, bool) {
	for _, sys := range registry.Systems(seed, shards) {
		if sys.Name == app {
			if shards > 1 {
				sys.Profile.RunFor = shardRunFor
			}
			return sys, true
		}
	}
	return shard.System{}, false
}

// runShard replays the schedule against the serving fabric: kills, drains,
// partitions, live shard moves, and ring changes become the fabric's
// script, linkfault events arm the network injector before traffic opens,
// and the fabric's own oracles (ownership epochs, acked-write ledger,
// partition crossings) report through the shard observation.
func runShard(sch Schedule) (*registry.Observation, error) {
	sys, ok := fabricSystem(sch.Seed, sch.App, sch.Shards)
	if !ok {
		return nil, fmt.Errorf("explore: unknown app %q", sch.App)
	}
	inj := faultinject.New()
	netsim.RegisterSites(inj)

	var ssched shard.Schedule
	for _, ev := range sch.Events {
		at := time.Duration(ev.AtUs) * time.Microsecond
		window := shard.Window{From: at, To: at + time.Duration(ev.DurUs)*time.Microsecond, Shard: ev.Shard, Replica: ev.Replica}
		switch ev.Kind {
		case KindKill:
			ssched.Kills = append(ssched.Kills, shard.Kill{At: at, Shard: ev.Shard, Replica: ev.Replica})
		case KindDrain:
			ssched.Drains = append(ssched.Drains, window)
		case KindPartition:
			ssched.Partitions = append(ssched.Partitions, window)
		case KindShardMove:
			ssched.Moves = append(ssched.Moves, shard.Move{At: at, Shard: ev.Shard, Replica: ev.Replica})
		case KindRingChange:
			ssched.RingChanges = append(ssched.RingChanges, shard.RingChange{At: at, Shard: ev.Shard})
		case KindSnapshotRead:
			ssched.SnapshotReads = append(ssched.SnapshotReads, shard.SnapshotRead{At: at, Shard: ev.Shard, Replica: ev.Replica, Readers: ev.Readers})
		case KindLinkFault:
			inj.Disarm(ev.Site)
			inj.ArmAfter(ev.Site, faultinject.OpFailure, ev.Skip)
			inj.Enable()
		default:
			return nil, fmt.Errorf("explore: event %s invalid in shard mode", ev)
		}
	}

	cfg := shard.Config{
		System:   sch.App,
		Shards:   sch.Shards,
		Replicas: sch.Replicas,
		Spares:   sch.Spares,
		Seed:     sch.Seed,
		Recovery: recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: sys.Profile.CheckpointInterval},
		Profile:  sys.Profile,
		Inj:      inj,
	}
	rep, err := shard.Run(cfg, sys.Factory, ssched)
	if err != nil {
		return nil, fmt.Errorf("explore: shard run: %w", err)
	}
	return &registry.Observation{
		App:   sch.App,
		Seed:  sch.Seed,
		Shard: &rep,
	}, nil
}
