package recovery

import (
	"fmt"

	"phoenix/internal/core"
	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/workload"
)

// This file implements the crash-consistency checker for preserve_exec: it
// replays one deterministic workload-plus-crash sequence many times, arming a
// different recovery-path fault each time, and requires every survivor's
// logical state (App.Dump) to equal either the fully-preserved reference or
// the default-recovery reference — never a torn hybrid. Because an aborted
// preserve charges no simulated time and every run reuses the same machine
// seed, the probe runs are clock-identical replays of the references up to
// the moment the fault strikes.

// Probe names one recovery-path fault to inject: the site to arm and how
// many executions of that site to let pass before it fires (ArmAfter).
type Probe struct {
	Site string `json:"site"`
	Skip int    `json:"skip"`
}

func (p Probe) String() string { return fmt.Sprintf("%s+%d", p.Site, p.Skip) }

// DefaultProbes covers every recovery injection point, striking the move and
// copy sites at several depths so mid-commit rollback is exercised, not just
// first-operation failure. The corrupt probes are Byzantine: instead of
// failing an operation they silently flip a bit in a preserved frame, and the
// integrity checksums must catch it.
func DefaultProbes() []Probe {
	return []Probe{
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
}

// armFault arms pr's site with the fault type that site fires: corruption
// sites flip bits, operation sites fail.
func armFault(inj *faultinject.Injector, pr Probe) {
	typ := faultinject.OpFailure
	if pr.Site == faultinject.SitePreserveCorrupt {
		typ = faultinject.BitFlip
	}
	inj.ArmAfter(pr.Site, typ, pr.Skip)
	inj.Enable()
}

// AppFactory builds a fresh application and workload generator bound to the
// given injector. The checker constructs everything anew for every run so
// each is a byte-for-byte deterministic replay of the others.
type AppFactory func(inj *faultinject.Injector) (App, workload.Generator)

// AtomicityConfig parameterises CheckAtomicity.
type AtomicityConfig struct {
	// Seed is the machine seed shared by every run.
	Seed int64
	// Warm is how many requests to serve before the synthetic crash
	// (default 50).
	Warm int
	// Settle is how many requests to serve after recovery, proving the
	// survivor still works.
	Settle int
	// Probes defaults to DefaultProbes.
	Probes []Probe
	// Harness overrides harness options (Mode is forced to ModePhoenix).
	Harness Config
}

// ProbeOutcome records how one probe run ended.
type ProbeOutcome struct {
	Probe Probe `json:"probe"`
	// Fired reports the armed fault actually struck (a probe deeper than the
	// app's plan — e.g. the 4th move of a 2-range plan — never fires).
	Fired bool `json:"fired"`
	// Fallback reports the harness counted a recovery-fault or integrity
	// fallback.
	Fallback bool `json:"fallback"`
	// MatchedPreserve / MatchedFallback report which reference dump the
	// surviving state equalled.
	MatchedPreserve bool `json:"matched_preserve"`
	MatchedFallback bool `json:"matched_fallback"`
}

// CheckAtomicity runs the crash-consistency protocol for one application.
// It returns the per-probe outcomes and the first violation found:
// a simulator error escaping recovery, a fired fault without a counted
// fallback, or — the property under test — a survivor whose state is torn.
func CheckAtomicity(mk AppFactory, cfg AtomicityConfig) ([]ProbeOutcome, error) {
	if cfg.Probes == nil {
		cfg.Probes = DefaultProbes()
	}
	if cfg.Warm <= 0 {
		cfg.Warm = 50
	}

	runOnce := func(arm *Probe) (core.StateDump, *Harness, error) {
		m := kernel.NewMachine(cfg.Seed)
		inj := faultinject.New()
		app, gen := mk(inj)
		hcfg := cfg.Harness
		hcfg.Mode = ModePhoenix
		h := NewHarness(m, hcfg, app, gen, inj)
		if err := h.Boot(); err != nil {
			return nil, nil, err
		}
		if err := h.RunRequests(cfg.Warm); err != nil {
			return nil, nil, err
		}
		if arm != nil {
			armFault(inj, *arm)
		}
		if err := h.Kill(); err != nil {
			return nil, nil, fmt.Errorf("recovery surfaced a simulator error: %w", err)
		}
		if err := h.RunRequests(cfg.Settle); err != nil {
			return nil, nil, err
		}
		return h.App.Dump(), h, nil
	}

	// Reference A — no fault: the fully-preserved trajectory.
	preserveDump, hA, err := runOnce(nil)
	if err != nil {
		return nil, fmt.Errorf("preserve reference: %w", err)
	}
	if hA.Stat.PhoenixRestarts != 1 {
		return nil, fmt.Errorf("preserve reference did not PHOENIX-restart: %+v", hA.Stat)
	}
	// Reference B — crash between plan and commit: nothing transferred, so
	// the fallback runs the application's default recovery from scratch.
	fallbackDump, hB, err := runOnce(&Probe{Site: faultinject.SitePreservePlan})
	if err != nil {
		return nil, fmt.Errorf("fallback reference: %w", err)
	}
	if hB.Stat.RecoveryFaultFallbacks != 1 {
		return nil, fmt.Errorf("fallback reference took no recovery-fault fallback: %+v", hB.Stat)
	}

	outcomes := make([]ProbeOutcome, 0, len(cfg.Probes))
	for _, pr := range cfg.Probes {
		pr := pr
		dump, h, err := runOnce(&pr)
		if err != nil {
			return outcomes, fmt.Errorf("probe %s: %w", pr, err)
		}
		out := ProbeOutcome{
			Probe:           pr,
			Fired:           h.Inj.Fired(pr.Site),
			Fallback:        h.Stat.RecoveryFaultFallbacks+h.Stat.IntegrityFallbacks > 0,
			MatchedPreserve: dumpsEqual(dump, preserveDump),
			MatchedFallback: dumpsEqual(dump, fallbackDump),
		}
		outcomes = append(outcomes, out)
		switch {
		case !out.MatchedPreserve && !out.MatchedFallback:
			return outcomes, fmt.Errorf("probe %s: torn state — survivor matches neither reference (%s)",
				pr, diffSummary(dump, preserveDump, fallbackDump))
		case out.Fired && !out.Fallback:
			return outcomes, fmt.Errorf("probe %s: fault fired but no recovery-fault fallback counted (%+v)",
				pr, h.Stat)
		case out.Fired && h.M.Counters.PreservesAborted.Load() == 0:
			return outcomes, fmt.Errorf("probe %s: fault fired but no aborted preserve counted (%s)",
				pr, h.M.Counters)
		case !out.Fired && (out.Fallback || !out.MatchedPreserve):
			return outcomes, fmt.Errorf("probe %s: fault never fired yet the run diverged from the preserve reference (%+v)",
				pr, h.Stat)
		}
	}
	return outcomes, nil
}

func dumpsEqual(a, b core.StateDump) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// diffSummary condenses how a torn dump differs from each reference.
func diffSummary(got, preserve, fallback core.StateDump) string {
	count := func(ref core.StateDump) int {
		n := 0
		for k, v := range got {
			if ref[k] != v {
				n++
			}
		}
		for k := range ref {
			if _, ok := got[k]; !ok {
				n++
			}
		}
		return n
	}
	return fmt.Sprintf("%d keys; %d differ from preserve ref (%d keys), %d from fallback ref (%d keys)",
		len(got), count(preserve), len(preserve), count(fallback), len(fallback))
}
