package recovery

import (
	"fmt"
	"time"

	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
)

// This file implements the Byzantine-corruption campaign for the escalation
// ladder: CheckEscalation (the sibling of CheckAtomicity) drives one
// application through a sequence of crashes, each with a bit flip armed
// against the preserved frames, and checks the whole supervision contract —
// every injected corruption is caught by the integrity checksums before the
// successor serves, the crash-loop breaker escalates PHOENIX → builtin →
// vanilla instead of crash-looping, the retry budget bounds the episode, and
// a stable serving period walks the ladder back to PHOENIX, after which a
// clean crash recovers via preserve_exec again.

// EscalationConfig parameterises CheckEscalation.
type EscalationConfig struct {
	// Seed is the machine seed (runs are deterministic replays).
	Seed int64
	// Warm is how many requests to serve before the first crash (default 50).
	Warm int
	// Settle is how many requests to serve after each recovery (default 15).
	Settle int
	// Crashes is how many corruption-armed crash cycles to drive
	// (default 7 — with the campaign supervisor's BreakerK of 3 that
	// traverses the full ladder: two caught corruptions, a trip to builtin,
	// and a second trip to vanilla).
	Crashes int
	// Supervisor overrides the campaign's breaker/ladder parameters; zero
	// fields take the campaign defaults (BreakerK 3, Window 60s).
	Supervisor SupervisorConfig
	// Harness overrides harness options (Mode is forced to ModePhoenix and
	// Supervise to true).
	Harness Config
}

// EscalationOutcome reports what one campaign observed.
type EscalationOutcome struct {
	// Cycles is how many crash cycles ran.
	Cycles int `json:"cycles"`
	// CorruptionsFired counts cycles whose armed bit flip actually struck a
	// preserved frame (only PHOENIX-level restarts reach preserve_exec).
	CorruptionsFired int `json:"corruptions_fired"`
	// Detections counts checksum mismatches the kernel caught; the campaign
	// requires Detections == CorruptionsFired.
	Detections int64 `json:"detections"`
	// IntegrityFallbacks, BreakerTrips, Escalations, Deescalations mirror
	// the harness Stats.
	IntegrityFallbacks int `json:"integrity_fallbacks"`
	BreakerTrips       int `json:"breaker_trips"`
	Escalations        int `json:"escalations"`
	Deescalations      int `json:"deescalations"`
	// MaxLevel is the deepest ladder rung reached; FinalLevel is the rung
	// after the stabilisation phase (must be LevelPhoenix).
	MaxLevel   Level `json:"max_level"`
	FinalLevel Level `json:"final_level"`
	// BackoffTotal is the simulated time spent holding restarts (ns in JSON).
	BackoffTotal time.Duration `json:"backoff_total_ns"`
	// PhoenixRecovered reports the post-stabilisation clean crash recovered
	// via preserve_exec with its checksums verified.
	PhoenixRecovered bool `json:"phoenix_recovered"`
}

func (o EscalationOutcome) String() string {
	return fmt.Sprintf("cycles=%d corruptions=%d detected=%d integrity-fallbacks=%d trips=%d esc=%d deesc=%d max=%v final=%v backoff=%v phoenix-again=%v",
		o.Cycles, o.CorruptionsFired, o.Detections, o.IntegrityFallbacks,
		o.BreakerTrips, o.Escalations, o.Deescalations, o.MaxLevel, o.FinalLevel,
		o.BackoffTotal, o.PhoenixRecovered)
}

// CheckEscalation runs the Byzantine-corruption protocol for one application
// and returns the first contract violation found. All timing — backoff,
// breaker window, stable period — flows through the simulated clock, so runs
// are deterministic.
func CheckEscalation(mk AppFactory, cfg EscalationConfig) (EscalationOutcome, error) {
	if cfg.Warm <= 0 {
		cfg.Warm = 50
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 15
	}
	if cfg.Crashes <= 0 {
		cfg.Crashes = 7
	}
	sup := cfg.Supervisor
	if sup.BreakerK == 0 {
		sup.BreakerK = 3
	}
	if sup.Window == 0 {
		sup.Window = 60 * time.Second
	}
	if sup.BackoffBase == 0 {
		sup.BackoffBase = 100 * time.Millisecond
	}
	if sup.BackoffMax == 0 {
		sup.BackoffMax = 2 * time.Second
	}
	if sup.StablePeriod == 0 {
		sup.StablePeriod = 30 * time.Second
	}

	var out EscalationOutcome
	m := kernel.NewMachine(cfg.Seed)
	inj := faultinject.New()
	app, gen := mk(inj)
	hcfg := cfg.Harness
	hcfg.Mode = ModePhoenix
	hcfg.Supervise = true
	hcfg.Supervisor = sup
	if err := hcfg.Validate(); err != nil {
		return out, fmt.Errorf("escalation config: %w", err)
	}
	h := NewHarness(m, hcfg, app, gen, inj)
	if err := h.Boot(); err != nil {
		return out, err
	}
	if err := h.RunRequests(cfg.Warm); err != nil {
		return out, err
	}

	crashOnce := func() error {
		// A supervision error here (budget exhaustion) is a campaign failure:
		// no run may crash-loop past its budget.
		if err := h.Kill(); err != nil {
			return fmt.Errorf("cycle %d: %w", out.Cycles, err)
		}
		return nil
	}

	// Phase 1 — Byzantine crash cycles: every cycle re-arms a bit flip
	// against the preserved frames and crashes. Cycles that restart at the
	// PHOENIX rung reach preserve_exec and must have the corruption caught;
	// escalated cycles never call it, so their armed fault stays cold.
	for i := 0; i < cfg.Crashes; i++ {
		inj.Disarm(faultinject.SitePreserveCorrupt)
		inj.ArmAfter(faultinject.SitePreserveCorrupt, faultinject.BitFlip, 0)
		inj.Enable()
		firedBefore := m.Counters.ChecksumMismatches.Load()
		if err := crashOnce(); err != nil {
			return out, err
		}
		out.Cycles++
		if inj.Fired(faultinject.SitePreserveCorrupt) {
			out.CorruptionsFired++
			if m.Counters.ChecksumMismatches.Load() != firedBefore+1 {
				return out, fmt.Errorf("cycle %d: corruption fired but no checksum mismatch counted (%s)",
					out.Cycles, m.Counters)
			}
		}
		if lvl := h.EscalationLevel(); lvl > out.MaxLevel {
			out.MaxLevel = lvl
		}
		if err := h.RunRequests(cfg.Settle); err != nil {
			return out, err
		}
	}
	inj.Disarm(faultinject.SitePreserveCorrupt)

	// Phase 2 — stabilisation: serve past the stable period once per rung
	// below PHOENIX; the ladder must walk all the way back.
	for i := 0; i <= int(LevelVanilla) && h.EscalationLevel() != LevelPhoenix; i++ {
		m.Clock.Advance(sup.StablePeriod)
		if err := h.RunRequests(cfg.Settle); err != nil {
			return out, err
		}
	}

	out.Detections = m.Counters.ChecksumMismatches.Load()
	out.IntegrityFallbacks = h.Stat.IntegrityFallbacks
	out.BreakerTrips = h.Stat.BreakerTrips
	out.Escalations = h.Stat.Escalations
	out.Deescalations = h.Stat.Deescalations
	out.FinalLevel = h.EscalationLevel()
	out.BackoffTotal = h.Stat.BackoffTotal

	// Contract checks.
	switch {
	case out.CorruptionsFired == 0:
		return out, fmt.Errorf("no corruption ever fired — the campaign exercised nothing (%s)", out)
	case out.Detections != int64(out.CorruptionsFired):
		return out, fmt.Errorf("detections (%d) != corruptions fired (%d): a bit flip escaped the checksums (%s)",
			out.Detections, out.CorruptionsFired, out)
	case out.IntegrityFallbacks != out.CorruptionsFired:
		return out, fmt.Errorf("integrity fallbacks (%d) != corruptions fired (%d): a detection was not contained (%s)",
			out.IntegrityFallbacks, out.CorruptionsFired, out)
	case out.BreakerTrips == 0:
		return out, fmt.Errorf("breaker never tripped across %d crash cycles (%s)", out.Cycles, out)
	case out.Escalations != out.BreakerTrips:
		return out, fmt.Errorf("escalations (%d) != breaker trips (%d) (%s)", out.Escalations, out.BreakerTrips, out)
	case out.FinalLevel != LevelPhoenix:
		return out, fmt.Errorf("ladder did not return to PHOENIX after stable serving: final level %v (%s)",
			out.FinalLevel, out)
	case out.Deescalations != out.Escalations:
		return out, fmt.Errorf("de-escalations (%d) != escalations (%d): ladder accounting is torn (%s)",
			out.Deescalations, out.Escalations, out)
	case h.Stat.BackoffTotal <= 0:
		return out, fmt.Errorf("no backoff was ever charged across %d cycles (%s)", out.Cycles, out)
	}

	// Phase 3 — proof of recovery: with no fault armed, one more crash must
	// recover via preserve_exec with every checksum verifying clean.
	phoenixBefore := h.Stat.PhoenixRestarts
	verifiedBefore := m.Counters.ChecksumsVerified.Load()
	if err := crashOnce(); err != nil {
		return out, err
	}
	if err := h.RunRequests(cfg.Settle); err != nil {
		return out, err
	}
	out.PhoenixRecovered = h.Stat.PhoenixRestarts == phoenixBefore+1 &&
		m.Counters.ChecksumsVerified.Load() > verifiedBefore
	if !out.PhoenixRecovered {
		return out, fmt.Errorf("post-stabilisation crash did not recover via PHOENIX (restarts %d→%d, verified %d→%d; %s)",
			phoenixBefore, h.Stat.PhoenixRestarts, verifiedBefore, m.Counters.ChecksumsVerified.Load(), out)
	}
	return out, nil
}
