package recovery_test

// External test package: the campaigns run on explore's runner through the
// experiments package, which imports recovery — an internal test package
// would be an import cycle.

import (
	"testing"

	"phoenix/internal/apps/registry"
	"phoenix/internal/experiments"
	"phoenix/internal/recovery"
)

// TestPreserveAtomicityAllApps runs the crash-consistency matrix: for every
// application, every recovery-path injection point (at several depths) must
// end in a counted fallback whose surviving state equals either the
// fully-preserved or the default-recovery reference — never a torn hybrid,
// never a simulator error, never an oracle violation. The corrupt probes
// additionally require the background integrity verdict to catch a silent
// bit flip in the preserved frames.
func TestPreserveAtomicityAllApps(t *testing.T) {
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			outcomes, err := experiments.Atomicity(name, 11)
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			for _, o := range outcomes {
				if o.Fired {
					fired++
				}
				t.Logf("%-28s fired=%-5v fallback=%-5v matched: preserve=%-5v fallback=%v",
					o.Probe, o.Fired, o.Fallback, o.MatchedPreserve, o.MatchedFallback)
			}
			// Plan, first-move, image-load, and first-corrupt faults strike
			// every app's restart; deeper probes may pass through when the
			// plan is small.
			if fired < 4 {
				t.Fatalf("only %d probes fired — the matrix exercised too little", fired)
			}
		})
	}
}

// TestEscalationAllApps runs the Byzantine-corruption campaign for every
// application: repeated bit flips in the preserved frames must all be caught
// by the checksums, the crash-loop breaker must walk the full ladder
// PHOENIX → builtin → vanilla without exceeding the retry budget, and a
// stable serving period must walk it back until a clean crash recovers via
// preserve_exec again.
func TestEscalationAllApps(t *testing.T) {
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			out, err := experiments.Escalation(name, 23)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s", out)
			if out.MaxLevel != recovery.LevelVanilla {
				t.Fatalf("ladder never reached vanilla: %s", out)
			}
			if out.CorruptionsFired < 2 {
				t.Fatalf("expected at least two caught corruptions before the first trip: %s", out)
			}
		})
	}
}
