package explore

import (
	"errors"
	"fmt"
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
//
// FailedVerdicts counts the background integrity verdicts that failed, and
// ServedBeforeVerdict the requests those incarnations answered first: the
// price of optimistic recovery, reported rather than hidden.
type Outcome struct {
	Schedule            Schedule    `json:"schedule"`
	Requests            int         `json:"requests"`
	Recoveries          int         `json:"recoveries"`
	CorruptionsFired    int         `json:"corruptions_fired"`
	OpFaultsFired       int         `json:"op_faults_fired"`
	FailedVerdicts      int         `json:"failed_verdicts,omitempty"`
	ServedBeforeVerdict int         `json:"served_before_verdict,omitempty"`
	FinalLevel          string      `json:"final_level,omitempty"`
	Terminated          string      `json:"terminated,omitempty"`
	Violations          []Violation `json:"violations"`
}

// Run executes one schedule and judges it against the application's oracles.
// The returned error reports infrastructure problems only (an unbootable app,
// a crash that did not register); oracle violations are data, not errors.
func Run(sch Schedule) (Outcome, error) {
	obs, err := Observe(sch)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Schedule:            sch,
		Requests:            obs.Stats.Requests,
		Recoveries:          len(obs.Recoveries),
		CorruptionsFired:    obs.CorruptionsFired,
		OpFaultsFired:       obs.OpFaultsFired,
		FailedVerdicts:      obs.Stats.IntegrityFallbacks,
		ServedBeforeVerdict: obs.Stats.ServedBeforeVerdict,
		FinalLevel:          obs.FinalLevel.String(),
		Terminated:          obs.Terminated,
		Violations:          Judge(obs),
	}
	if obs.Shard != nil {
		out.Requests = obs.Shard.Requests
		out.Recoveries = obs.Shard.Kills
		out.FinalLevel = ""
	}
	return out, nil
}

// Observe runs one schedule and returns what its oracles judge. The error
// reports infrastructure problems and contradictory schedules only.
func Observe(sch Schedule) (*registry.Observation, error) {
	switch sch.Mode {
	case "shard":
		return runShard(sch)
	case "single":
		return runSingle(sch)
	}
	return nil, fmt.Errorf("explore: unknown schedule mode %q", sch.Mode)
}

// Judge applies the oracles of obs's mode and application, in order. A
// clean run gets an empty, non-nil slice, so outcome JSON keeps
// "violations":[].
func Judge(obs *registry.Observation) []Violation {
	oracles := registry.OraclesFor(obs.App)
	if obs.Shard != nil {
		oracles = registry.ShardOracles()
	}
	vs := []Violation{}
	for _, oracle := range oracles {
		for _, msg := range oracle.Check(obs) {
			vs = append(vs, Violation{Oracle: oracle.Name(), Msg: msg})
		}
	}
	return vs
}

// harnessConfig returns the harness shape sch.Rung pins (see Schedule.Rung).
// On the ladder three restarts inside a minute trip the breaker and 30 s of
// serving walks it back a rung; the pinned floors back off 1 ns, so a
// recovery window measures the mechanism and not the hold-down. The
// unpinned ladder and the builtin rung checkpoint every 5 ms, so a builtin
// recovery has persisted state to load. A contradictory schedule is an
// error here, never a NewHarness panic.
func harnessConfig(sch Schedule) (recovery.Config, error) {
	cfg := recovery.Config{
		Mode:             recovery.ModePhoenix,
		DisableChecksums: sch.DisableChecksums,
		RewindDomains:    sch.Domains || sch.Rung == "rewind",
		Supervise:        true,
		Supervisor: recovery.SupervisorConfig{
			BreakerK: 3, Window: time.Minute, StablePeriod: 30 * time.Second, RetryBudget: 16,
			BackoffBase: 100 * time.Millisecond, BackoffMax: 2 * time.Second,
		},
	}
	sup := &cfg.Supervisor
	switch sch.Rung {
	case "":
		cfg.CheckpointInterval = 5 * time.Millisecond
		if sch.Domains {
			sup.Floor = recovery.LevelRewind
		}
	case "rewind", "microreboot":
		sup.Floor, sup.BackoffBase, sup.BackoffMax = recovery.LevelMicroreboot, time.Nanosecond, time.Nanosecond
		if cfg.RewindDomains {
			sup.Floor = recovery.LevelRewind
		}
	case "phoenix":
		cfg.Supervise = false
	case "builtin":
		cfg.Mode, cfg.Supervise = recovery.ModeBuiltin, false
		cfg.CheckpointInterval = 5 * time.Millisecond
	case "vanilla":
		cfg.Mode, cfg.Supervise = recovery.ModeVanilla, false
	default:
		return cfg, fmt.Errorf("explore: unknown rung %q", sch.Rung)
	}
	if sch.Rung != "" && sch.Domains {
		return cfg, fmt.Errorf("explore: rung %q pins the floor, so the schedule cannot set domains", sch.Rung)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("explore: rung %q: %w", sch.Rung, err)
	}
	return cfg, nil
}

// runSingle drives one harness, shaped by harnessConfig, through the
// schedule: requests are served in order, and each event fires just before
// the request index it names. Kills go through the real failure-handling
// path, so the run exercises preserve_exec, the fallback taxonomy, and the
// escalation ladder exactly as production recovery would.
func runSingle(sch Schedule) (*registry.Observation, error) {
	mk, ok := registry.Factories(sch.Seed)[sch.App]
	if !ok {
		return nil, fmt.Errorf("explore: unknown app %q", sch.App)
	}
	cfg, err := harnessConfig(sch)
	if err != nil {
		return nil, err
	}
	m := kernel.NewMachine(sch.Seed)
	// Shadow every incremental verification with the full checksum walk: any
	// mismatch the delta protocol would miss shows up as an
	// incremental_audit_divergences count for the accounting oracle.
	m.AuditIncremental = true
	inj := faultinject.New()
	app, gen := mk(inj)
	h := recovery.NewHarness(m, cfg, app, gen, inj)
	if err := h.Boot(); err != nil {
		return nil, fmt.Errorf("explore: %s boot: %w", sch.App, err)
	}

	obs := &registry.Observation{
		App:     sch.App,
		Floor:   h.LadderFloor(),
		Domains: cfg.RewindDomains,
	}

	// verifyComponents runs the application's cross-component invariant after
	// a recovery episode. It runs on the offline clock (an oracle must not
	// perturb the timeline) and only on checksummed runs — with verification
	// off, a silently committed bit flip may legitimately corrupt component
	// state, which is the accounting oracle's finding, not a dangling-state
	// bug. For the same reason it judges only state an integrity verdict has
	// cleared: while the live incarnation's verdict is in flight the check
	// waits (deferred) for the first request boundary after it lands, and a
	// failing verdict's state is never judged, because the harness falls
	// back before serving from it. A simulated crash *inside* the verifier is
	// itself a violation: the invariant walk dereferenced dangling state.
	var deferred string
	verifyComponents := func(where string) {
		ca, ok := app.(recovery.ComponentApp)
		if !ok || sch.DisableChecksums {
			return
		}
		deferred = ""
		if v := h.Proc().Verify(); v != nil && (!v.Landed || v.Err != nil) {
			if !v.Landed {
				deferred = where
			}
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
	// else lost in-memory state somewhere. The episode's successor is kept:
	// its integrity verdict lands in the background, past the episode, and
	// fills the record's ChecksumsVerified once the run is over.
	var successors []*kernel.Process
	var episodeStart recovery.Stats
	recordRecovery := func(atStep int, before recovery.Stats) {
		episodeStart = before
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
		})
		successors = append(successors, h.Proc())
		verifyComponents(fmt.Sprintf("after recovery at step %d", atStep))
	}

	// verdictFallback records the fallback a failing integrity verdict took
	// before step atStep. With no request served since the recovery whose
	// restart it judged, it is part of that episode, which was then no clean
	// preserve.
	verdictFallback := func(atStep int, before recovery.Stats) {
		if n := len(obs.Recoveries); n > 0 && obs.Recoveries[n-1].AtStep == atStep {
			obs.Recoveries, successors = obs.Recoveries[:n-1], successors[:n-1]
			before = episodeStart
		}
		recordRecovery(atStep, before)
	}

	terminal := func(err error) (bool, error) {
		if errors.Is(err, recovery.ErrRetryBudget) {
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
			case KindDisarm:
				collect(ev.Site)
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
				done = stop
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
		start := m.Clock.Now()
		ok, eff, err := h.ServeRequest(req)
		if stop, err := terminal(err); err != nil {
			return nil, fmt.Errorf("explore: step %d: %w", i, err)
		} else if stop {
			done = true
		}
		// An organic crash inside the request (e.g. structures corrupted by a
		// silently committed bit flip) recovered in-line; the episode applies
		// to every step after this one. A failing integrity verdict falls back
		// at the request's boundary, before it is served.
		switch {
		case h.Stat.Failures > before.Failures:
			recordRecovery(i+1, before)
		case h.Stat.IntegrityFallbacks > before.IntegrityFallbacks:
			verdictFallback(i, before)
		case deferred != "":
			verifyComponents(deferred)
		}
		obs.Steps = append(obs.Steps, registry.TraceStep{
			Index: i, Op: req.Op.String(), Key: req.Key, OK: ok, Effective: eff,
			Start: start, End: m.Clock.Now(),
		})
	}

	for _, spec := range kernel.PreserveSiteSpecs() {
		collect(spec.ID)
	}
	// A verdict still in flight lands before the run is judged.
	before := h.Stat
	if err := h.SettleVerdict(); err != nil {
		return nil, fmt.Errorf("explore: settling the last verdict: %w", err)
	}
	switch {
	case h.Stat.IntegrityFallbacks > before.IntegrityFallbacks:
		verdictFallback(len(obs.Steps), before)
	case deferred != "":
		verifyComponents(deferred)
	}
	for i, p := range successors {
		if v := p.Verify(); v != nil && v.Landed && v.Err == nil {
			obs.Recoveries[i].ChecksumsVerified = int64(p.Handoff().VerifiedChecksums)
		}
	}

	obs.Stats = h.Stat
	obs.Counters = m.Counters.Snapshot()
	obs.FinalLevel = h.EscalationLevel()
	// The dump runs off the timeline and inside the process: state that a
	// silently committed bit flip corrupted may crash it, which leaves Dump
	// nil instead of failing the run.
	m.Clock.RunOffline(func() {
		h.Proc().Run(func() { obs.Dump = app.Dump() })
	})
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
	if sch.Rung != "" {
		return nil, fmt.Errorf("explore: rung %q pins a single harness, not a fabric", sch.Rung)
	}
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
	return &registry.Observation{App: sch.App, Shard: &rep}, nil
}
