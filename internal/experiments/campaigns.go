package experiments

import (
	"fmt"
	"maps"
	"strings"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/explore"
	"phoenix/internal/faultinject"
	"phoenix/internal/recovery"
)

// The single-harness recovery campaigns. atomicity, escalation and
// microreboot are pinned schedules on explore's runner plus the clauses each
// asserts; explore's oracles judge every run too, and any violation fails the
// entry. Each runs every registry application (or the o.App one) at one fixed
// size, so Quick changes nothing.

// pinned runs one single-mode schedule on explore's runner and fails on the
// first oracle violation or when the survivor's Dump crashed.
func pinned(app string, seed int64, rung string, steps int, evs ...explore.Event) (*registry.Observation, error) {
	obs, err := explore.Observe(explore.Schedule{Seed: seed, App: app, Mode: "single", Steps: steps, Rung: rung, Events: evs})
	if err != nil {
		return nil, err
	}
	if vs := explore.Judge(obs); len(vs) > 0 {
		return nil, fmt.Errorf("%s oracle: %s (%d violations)", vs[0].Oracle, vs[0].Msg, len(vs))
	}
	if obs.Dump == nil {
		return nil, fmt.Errorf("survivor Dump crashed")
	}
	return obs, nil
}

// Probe names one recovery-path fault: the site to arm and how many
// executions of it to let pass before it fires.
type Probe struct {
	Site string `json:"site"`
	Skip int    `json:"skip"`
}

func (p Probe) String() string { return fmt.Sprintf("%s+%d", p.Site, p.Skip) }

// probes covers every recovery injection point, striking the move and copy
// sites at several depths so mid-commit rollback is exercised. The corrupt
// probes flip a bit in a preserved frame, which the background integrity
// verdict must catch.
var probes = []Probe{
	{Site: faultinject.SitePreservePlan},
	{Site: faultinject.SitePreserveMove},
	{Site: faultinject.SitePreserveMove, Skip: 1},
	{Site: faultinject.SitePreserveMove, Skip: 3},
	{Site: faultinject.SitePreserveCopy},
	{Site: faultinject.SitePreserveCopy, Skip: 1},
	{Site: faultinject.SitePreserveLoad},
	{Site: faultinject.SitePreserveCorrupt},
	{Site: faultinject.SitePreserveCorrupt, Skip: 2},
}

// ProbeOutcome records how one probe run ended: whether the armed fault
// struck (a probe deeper than the app's plan never fires), whether a
// recovery-fault or integrity fallback was counted, and which reference dump
// the survivor equalled.
type ProbeOutcome struct {
	Probe           Probe `json:"probe"`
	Fired           bool  `json:"fired"`
	Fallback        bool  `json:"fallback"`
	MatchedPreserve bool  `json:"matched_preserve"`
	MatchedFallback bool  `json:"matched_fallback"`
}

// Atomicity is the crash-consistency protocol for one application. Every run
// serves 80 requests on the unsupervised PHOENIX rung with a kill before
// request 60, and each probe run arms its fault just before the kill. An
// aborted preserve charges no simulated time, so a probe replays the
// references up to the fault, and its survivor must equal the preserve
// reference (no fault) or the fallback reference (a plan fault: nothing
// transferred), never a torn hybrid. A fired operation fault must also be a
// counted fallback and an aborted preserve. A fired bit flip commits, and
// its failing verdict must fall back before the corrupted successor's
// answers reach the survivor.
func Atomicity(app string, seed int64) ([]ProbeOutcome, error) {
	run := func(arm ...Probe) (*registry.Observation, error) {
		var evs []explore.Event
		for _, p := range arm {
			evs = append(evs, explore.Event{Kind: explore.KindArm, At: 60, Site: p.Site, Skip: p.Skip})
		}
		return pinned(app, seed, "phoenix", 80, append(evs, explore.Event{Kind: explore.KindKill, At: 60})...)
	}
	ref, err := run()
	if err == nil && ref.Stats.PhoenixRestarts != 1 {
		err = fmt.Errorf("did not PHOENIX-restart: %+v", ref.Stats)
	}
	if err != nil {
		return nil, fmt.Errorf("preserve reference: %w", err)
	}
	fb, err := run(probes[0])
	if err == nil && fb.Stats.RecoveryFaultFallbacks != 1 {
		err = fmt.Errorf("took no recovery-fault fallback: %+v", fb.Stats)
	}
	if err != nil {
		return nil, fmt.Errorf("fallback reference: %w", err)
	}

	outcomes := make([]ProbeOutcome, 0, len(probes))
	for _, pr := range probes {
		obs, err := run(pr)
		if err != nil {
			return outcomes, fmt.Errorf("probe %s: %w", pr, err)
		}
		s := obs.Stats
		out := ProbeOutcome{
			Probe:           pr,
			Fired:           obs.CorruptionsFired+obs.OpFaultsFired > 0,
			Fallback:        s.RecoveryFaultFallbacks+s.IntegrityFallbacks > 0,
			MatchedPreserve: maps.Equal(obs.Dump, ref.Dump),
			MatchedFallback: maps.Equal(obs.Dump, fb.Dump),
		}
		outcomes = append(outcomes, out)
		switch {
		case !out.MatchedPreserve && !out.MatchedFallback:
			return outcomes, fmt.Errorf("probe %s: torn state — survivor (%d keys) matches neither reference (%d and %d keys)",
				pr, len(obs.Dump), len(ref.Dump), len(fb.Dump))
		case out.Fired && !out.Fallback:
			return outcomes, fmt.Errorf("probe %s: fault fired but no recovery-fault fallback counted (%+v)", pr, s)
		case out.Fired && pr.Site != faultinject.SitePreserveCorrupt && obs.Counters["preserves_aborted"] == 0:
			return outcomes, fmt.Errorf("probe %s: fault fired but no aborted preserve counted (%v)", pr, obs.Counters)
		case out.Fired && pr.Site == faultinject.SitePreserveCorrupt && s.IntegrityFallbacks == 0:
			return outcomes, fmt.Errorf("probe %s: bit flip fired but no failing verdict fell back (%+v)", pr, s)
		case !out.Fired && (out.Fallback || !out.MatchedPreserve):
			return outcomes, fmt.Errorf("probe %s: fault never fired yet the run diverged from the preserve reference (%+v)", pr, s)
		}
	}
	return outcomes, nil
}

// EscalationOutcome reports one escalation run. Detections counts the
// checksum mismatches the kernel caught; IntegrityFallbacks through
// Deescalations and BackoffTotal (ns in JSON) mirror the harness Stats.
// MaxLevel is the deepest rung a recovery ran at and FinalLevel the rung the
// run ended on. PhoenixRecovered reports the final clean crash recovered via
// preserve_exec with its checksums verified.
type EscalationOutcome struct {
	Cycles             int            `json:"cycles"`
	CorruptionsFired   int            `json:"corruptions_fired"`
	Detections         int64          `json:"detections"`
	IntegrityFallbacks int            `json:"integrity_fallbacks"`
	BreakerTrips       int            `json:"breaker_trips"`
	Escalations        int            `json:"escalations"`
	Deescalations      int            `json:"deescalations"`
	MaxLevel           recovery.Level `json:"max_level"`
	FinalLevel         recovery.Level `json:"final_level"`
	BackoffTotal       time.Duration  `json:"backoff_total_ns"`
	PhoenixRecovered   bool           `json:"phoenix_recovered"`
}

func (o EscalationOutcome) String() string {
	return fmt.Sprintf("cycles=%d corruptions=%d detected=%d integrity-fallbacks=%d trips=%d esc=%d deesc=%d max=%v final=%v backoff=%v phoenix-again=%v",
		o.Cycles, o.CorruptionsFired, o.Detections, o.IntegrityFallbacks,
		o.BreakerTrips, o.Escalations, o.Deescalations, o.MaxLevel, o.FinalLevel,
		o.BackoffTotal, o.PhoenixRecovered)
}

// Escalation is the Byzantine-corruption protocol for one application: one
// run on the supervised ladder (BreakerK 3, 60 s window). Seven cycles arm a
// bit flip against the preserved frames and crash, at requests 50, 65, ...:
// two caught corruptions, a trip to builtin and a second trip to vanilla.
// Then the arming is retired (or a cycle the ladder left cold would strike
// the last crash), one 30 s calm per rung climbed walks the ladder back to
// PHOENIX, and a final clean crash must recover through preserve_exec. Every
// phase serves 15 requests. Integrity fallbacks equal mismatches and
// escalations equal trips under the oracles; the clauses add the rest.
func Escalation(app string, seed int64) (EscalationOutcome, error) {
	const cycles, settle = 7, 15
	var evs []explore.Event
	at := 50
	for ; at < 50+cycles*settle; at += settle {
		evs = append(evs,
			explore.Event{Kind: explore.KindArm, At: at, Site: faultinject.SitePreserveCorrupt},
			explore.Event{Kind: explore.KindKill, At: at})
	}
	calm, stable, finalKill := (30 * time.Second).Microseconds(), at, at+2*settle
	evs = append(evs,
		explore.Event{Kind: explore.KindCalm, At: stable, DurUs: calm},
		explore.Event{Kind: explore.KindDisarm, At: stable, Site: faultinject.SitePreserveCorrupt},
		explore.Event{Kind: explore.KindCalm, At: stable + settle, DurUs: calm},
		explore.Event{Kind: explore.KindKill, At: finalKill})
	var out EscalationOutcome
	obs, err := pinned(app, seed, "", finalKill+settle, evs...)
	if err != nil {
		return out, err
	}
	for _, r := range obs.Recoveries {
		if r.AtStep < stable {
			out.Cycles++
		}
		for l := out.MaxLevel + 1; l <= recovery.LevelVanilla; l++ {
			if l.String() == r.Level {
				out.MaxLevel = l
			}
		}
	}
	s, last := obs.Stats, obs.Recoveries[len(obs.Recoveries)-1]
	out.CorruptionsFired, out.Detections = obs.CorruptionsFired, obs.Counters["checksum_mismatches"]
	out.IntegrityFallbacks, out.BreakerTrips = s.IntegrityFallbacks, s.BreakerTrips
	out.Escalations, out.Deescalations = s.Escalations, s.Deescalations
	out.FinalLevel, out.BackoffTotal = obs.FinalLevel, s.BackoffTotal
	out.PhoenixRecovered = last.AtStep == finalKill && last.CleanPreserve && last.ChecksumsVerified > 0

	switch {
	case obs.Terminated != "":
		err = fmt.Errorf("run terminated: %s", obs.Terminated)
	case out.CorruptionsFired == 0:
		err = fmt.Errorf("no corruption ever fired — the campaign exercised nothing")
	case out.Detections != int64(out.CorruptionsFired):
		err = fmt.Errorf("detections (%d) != corruptions fired (%d): a bit flip escaped the checksums", out.Detections, out.CorruptionsFired)
	case out.BreakerTrips == 0:
		err = fmt.Errorf("breaker never tripped across %d crash cycles", out.Cycles)
	case out.FinalLevel != recovery.LevelPhoenix:
		err = fmt.Errorf("ladder did not return to PHOENIX after stable serving")
	case out.Deescalations != out.Escalations:
		err = fmt.Errorf("de-escalations (%d) != escalations (%d): ladder accounting is torn", out.Deescalations, out.Escalations)
	case out.BackoffTotal <= 0:
		err = fmt.Errorf("no backoff was ever charged across %d cycles", out.Cycles)
	case !out.PhoenixRecovered:
		err = fmt.Errorf("final clean crash did not recover via PHOENIX with its checksums verified (%+v)", last)
	default:
		return out, nil
	}
	return out, fmt.Errorf("%w (%s)", err, out)
}

// GranularityWindow is one measured rung: the simulated unavailability
// (ns in JSON) from the start of the faulting request to the end of the
// first answered request at or after it, how many requests that spans, and
// the mechanism that recovered (a phoenix-pinned run that hit an unsafe
// region reports "fallback").
type GranularityWindow struct {
	Granularity string        `json:"granularity"`
	Window      time.Duration `json:"window_ns"`
	Mechanism   string        `json:"mechanism"`
	Requests    int           `json:"requests"`
}

// MicrorebootOutcome is one application's granularity table, cheapest rung
// first.
type MicrorebootOutcome struct {
	App     string              `json:"app"`
	Windows []GranularityWindow `json:"windows"`
}

// Microreboot measures one application's recovery window at every rung it
// supports, in one 90-request run pinned to each. The fault lands before
// request 40, after a 5 ms calm that lets the builtin rung's checkpoint
// cadence persist the first 40 requests: the app's scripted mid-request bug,
// which crashes on transient state only so every rung can recover it, or on
// the microreboot rung a crash of the root of the app's component graph.
// The contract is the granularity order on the same application:
// rewind < microreboot < phoenix.
func Microreboot(app string, seed int64) (MicrorebootOutcome, error) {
	const faultAt, steps = 40, 90
	o := MicrorebootOutcome{App: app}
	bug, root := explore.Faults(app)
	probe, _ := registry.Factories(seed)[app](faultinject.New())
	ra, rewindable := probe.(recovery.RewindableApp)
	rewindable = rewindable && ra.Rewindable()

	for _, rung := range []string{"rewind", "microreboot", "phoenix", "builtin", "vanilla"} {
		fault := explore.Event{Kind: explore.KindDomainFault, At: faultAt, Site: bug}
		switch {
		case rung == "microreboot" && root == "", rung != "microreboot" && bug == "", rung == "rewind" && !rewindable:
			continue
		case rung == "microreboot":
			fault = explore.Event{Kind: explore.KindComponentKill, At: faultAt, Site: root}
		}
		calm := explore.Event{Kind: explore.KindCalm, At: faultAt, DurUs: (5 * time.Millisecond).Microseconds()}
		obs, err := pinned(app, seed, rung, steps, calm, fault)
		if err == nil && (len(obs.Recoveries) == 0 || obs.Recoveries[0].AtStep != faultAt+1) {
			err = fmt.Errorf("armed fault did not fire in request %d", faultAt)
		}
		if err != nil {
			return o, fmt.Errorf("%s/%s: %w", app, rung, err)
		}
		w := GranularityWindow{Granularity: rung}
		for _, st := range obs.Steps[faultAt:] {
			if st.OK {
				w.Window, w.Requests = st.End-obs.Steps[faultAt].Start, st.Index-faultAt+1
				break
			}
		}
		s := obs.Stats
		fallbacks := s.UnsafeFallbacks + s.GraceFallbacks + s.CrossFallbacks +
			s.RecoveryFaultFallbacks + s.IntegrityFallbacks + s.BootFailures
		switch {
		case s.Rewinds > 0:
			w.Mechanism = "rewind"
		case s.Microreboots > 0:
			w.Mechanism = "microreboot"
		case s.PhoenixRestarts > 0:
			w.Mechanism = "preserve_exec"
		case fallbacks > 0:
			w.Mechanism = "fallback"
		default:
			w.Mechanism = "restart"
		}
		// A sub-process rung must recover alone. The component oracle has
		// already ruled out either one running above its floor.
		recoveries := s.Rewinds + s.Microreboots + s.PhoenixRestarts + s.OtherRestarts + fallbacks
		switch {
		case w.Requests == 0:
			return o, fmt.Errorf("%s/%s: no answered request within %d after the fault", app, rung, steps-faultAt)
		case (rung == "rewind" || rung == "microreboot") && (recoveries != 1 || w.Mechanism != rung):
			return o, fmt.Errorf("%s/%s: rung leaked: rewinds=%d microreboots=%d phoenix=%d other=%d fallbacks=%d",
				app, rung, s.Rewinds, s.Microreboots, s.PhoenixRestarts, s.OtherRestarts, fallbacks)
		}
		o.Windows = append(o.Windows, w)
	}
	// Windows run finest rung first, so the order holds when each of rewind,
	// microreboot and phoenix beats the next one measured.
	for i := 1; i < len(o.Windows) && o.Windows[i].Granularity != "builtin"; i++ {
		if f, c := o.Windows[i-1], o.Windows[i]; f.Window >= c.Window {
			return o, fmt.Errorf("%s: %s window %v is not below %s window %v", app, f.Granularity, f.Window, c.Granularity, c.Window)
		}
	}
	return o, nil
}

// RunAtomicity replays recovery-path faults, Byzantine bit flips in the
// preserved frames included, against every application and requires no
// torn survivor.
func RunAtomicity(o Options) (any, error) {
	o.fill()
	return perApp(o, "atomicity", func(app string) (any, string, error) {
		outcomes, err := Atomicity(app, o.Seed)
		fired := 0
		for _, p := range outcomes {
			if p.Fired {
				fired++
			}
		}
		return outcomes, fmt.Sprintf("%d/%d probes fired, no torn survivor", fired, len(outcomes)), err
	})
}

// RunEscalation drives repeated preserved-state corruption through the
// crash-loop breaker and requires the full detect → escalate → de-escalate
// cycle.
func RunEscalation(o Options) (any, error) {
	o.fill()
	return perApp(o, "escalation", func(app string) (any, string, error) {
		out, err := Escalation(app, o.Seed)
		return out, out.String(), err
	})
}

// RunMicroreboot measures the recovery-granularity windows: the simulated
// unavailability of the same mid-request fault recovered by request rewind,
// component microreboot, PHOENIX preserve_exec, builtin restart and vanilla
// restart, one row per application. Each finer granularity must strictly
// beat the coarser ones.
func RunMicroreboot(o Options) (any, error) {
	o.fill()
	return table(o, registry.Names(), Microreboot, func(b *strings.Builder, r MicrorebootOutcome) {
		fmt.Fprintf(b, "%-18s", r.App)
		for _, w := range r.Windows {
			fmt.Fprintf(b, " %s=%v(%s)", w.Granularity, w.Window, w.Mechanism)
		}
		b.WriteByte('\n')
	})
}

// table runs one per-application campaign over names (or the o.App one),
// stopping at the first failing application, and prints one row per
// application that passed. The report is the rows.
func table[T any](o Options, names []string, run func(app string, seed int64) (T, error), row func(*strings.Builder, T)) (any, error) {
	names, err := only(names, func(n string) string { return n }, o.App)
	if err != nil {
		return nil, err
	}
	var rows []T
	var b strings.Builder
	for _, app := range names {
		var r T
		if r, err = run(app, o.Seed); err != nil {
			break
		}
		rows = append(rows, r)
		row(&b, r)
	}
	fmt.Fprint(o.Out, b.String())
	return rows, err
}

// only keeps the items named app; an unknown name is an error listing every
// item's name. An empty app keeps every item.
func only[T any](items []T, name func(T) string, app string) ([]T, error) {
	if app == "" {
		return items, nil
	}
	var keep []T
	var have []string
	for _, it := range items {
		if name(it) == app {
			keep = append(keep, it)
		}
		have = append(have, name(it))
	}
	if keep == nil {
		return nil, fmt.Errorf("unknown app %q (have %v)", app, have)
	}
	return keep, nil
}

// appOutcome is one application's entry in a per-app campaign report.
type appOutcome struct {
	App     string `json:"app"`
	Outcome any    `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// perApp runs check against every registry application (or the o.App one)
// and prints one line per application to o.Out, which must be filled. A
// failing application is reported and counted rather than stopping the
// campaign; any failure fails the whole campaign.
func perApp(o Options, kind string, check func(app string) (outcome any, summary string, err error)) (any, error) {
	names, err := only(registry.Names(), func(n string) string { return n }, o.App)
	if err != nil {
		return nil, err
	}
	var report []appOutcome
	failed := 0
	for _, name := range names {
		outcome, summary, err := check(name)
		r := appOutcome{App: name, Outcome: outcome}
		if err != nil {
			failed++
			r.Error = err.Error()
			fmt.Fprintf(o.Out, "%-18s FAIL: %v\n", name, err)
		} else {
			fmt.Fprintf(o.Out, "%-18s ok: %s\n", name, summary)
		}
		report = append(report, r)
	}
	if failed > 0 {
		return report, fmt.Errorf("%s campaign: %d application(s) failed", kind, failed)
	}
	return report, nil
}
