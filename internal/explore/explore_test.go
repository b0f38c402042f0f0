package explore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"phoenix/internal/faultinject"
)

// TestGenerateDeterministic: the seed → schedule map is pure, and distinct
// seeds actually spread across the search space.
func TestGenerateDeterministic(t *testing.T) {
	modes := map[string]int{}
	apps := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		a := Generate(seed, "")
		b := Generate(seed, "")
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("seed %d: Generate is not pure:\n%s\n%s", seed, ja, jb)
		}
		modes[a.Mode]++
		apps[a.App] = true
		if len(a.Events) == 0 {
			t.Fatalf("seed %d: empty schedule explores nothing", seed)
		}
	}
	if modes["single"] == 0 || modes["shard"] == 0 {
		t.Fatalf("40 seeds never drew both modes: %v", modes)
	}
	if len(apps) < 3 {
		t.Fatalf("40 seeds drew only %d app(s)", len(apps))
	}
}

// TestGenerateForcedApp: forcing -app restricts the target without changing
// the rest of the schedule shape.
func TestGenerateForcedApp(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		free := Generate(seed, "")
		forced := Generate(seed, "kvstore")
		if forced.App != "kvstore" {
			t.Fatalf("seed %d: forced app not honored: %q", seed, forced.App)
		}
		if free.Mode != forced.Mode || len(free.Events) != len(forced.Events) {
			t.Fatalf("seed %d: forcing the app changed the schedule shape: %v vs %v", seed, free, forced)
		}
	}
}

// TestRunDeterministic: the same schedule runs to byte-identical outcomes in
// both modes.
func TestRunDeterministic(t *testing.T) {
	ran := map[string]bool{}
	for seed := int64(1); seed <= 12 && (!ran["single"] || !ran["shard"]); seed++ {
		sch := Generate(seed, "")
		if ran[sch.Mode] {
			continue
		}
		ran[sch.Mode] = true
		a, err := Run(sch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(sch)
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("seed %d (%s): same-schedule reruns diverged:\n%s\n%s", seed, sch.Mode, ja, jb)
		}
		if a.Requests == 0 {
			t.Fatalf("seed %d (%s): run served nothing", seed, sch.Mode)
		}
	}
	if !ran["single"] {
		t.Fatal("no single-mode schedule in the first 12 seeds")
	}
}

// knownViolation is a hand-written schedule that must trip the accounting
// oracle: with integrity verification off, an armed bit flip against the
// preserved frames commits silently, and the oracle's silent-corruption
// predicate (corruptions fired > checksum mismatches) fires.
func knownViolation() Schedule {
	return Schedule{
		Seed:             99,
		App:              "kvstore",
		Mode:             "single",
		Steps:            60,
		DisableChecksums: true,
		Events: []Event{
			{Kind: KindArm, At: 10, Site: faultinject.SitePreserveCorrupt},
			{Kind: KindKill, At: 30},
			{Kind: KindKill, At: 50}, // noise the shrinker must remove
		},
	}
}

// TestKnownViolationDetected: the engine flags the silent-corruption run.
func TestKnownViolationDetected(t *testing.T) {
	out, err := Run(knownViolation())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 {
		t.Fatal("silent corruption under DisableChecksums was not flagged")
	}
	if out.Violations[0].Oracle != "accounting" {
		t.Fatalf("wrong oracle flagged: %+v", out.Violations)
	}
	if out.CorruptionsFired != 1 {
		t.Fatalf("corruption did not fire exactly once: %+v", out)
	}

	// The identical schedule with checksums on must be caught, not violated:
	// the mismatch aborts the preserve and the accounting stays consistent.
	sch := knownViolation()
	sch.DisableChecksums = false
	out, err = Run(sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("checksummed run should uphold every oracle, got %+v", out.Violations)
	}
}

// TestShrinkMinimizes: the shrinker reduces the known violation to its
// 2-event core (the arming and one kill) and tightens the step count to just
// past the kill, and the artifact replays byte-identically.
func TestShrinkMinimizes(t *testing.T) {
	sch := knownViolation()
	out, err := Run(sch)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Shrink(sch, out.Violations)
	if err != nil {
		t.Fatal(err)
	}
	min := art.Schedule
	if len(min.Events) != 2 {
		t.Fatalf("minimal schedule kept %d events, want 2: %+v", len(min.Events), min.Events)
	}
	kinds := map[string]int{}
	var killAt int
	for _, ev := range min.Events {
		kinds[ev.Kind]++
		if ev.Kind == KindKill {
			killAt = ev.At
		}
	}
	if kinds[KindArm] != 1 || kinds[KindKill] != 1 {
		t.Fatalf("minimal schedule is not arm+kill: %+v", min.Events)
	}
	if min.Steps != killAt+1 {
		t.Fatalf("steps %d not tightened to just past the kill at %d", min.Steps, killAt)
	}
	if !min.DisableChecksums {
		t.Fatal("shrinker dropped DisableChecksums, which the violation needs")
	}
	if err := Verify(art); err != nil {
		t.Fatal(err)
	}

	// Shrinking is deterministic: the same failing schedule reduces to the
	// same minimal artifact.
	art2, err := Shrink(sch, out.Violations)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(art)
	j2, _ := json.Marshal(art2)
	if string(j1) != string(j2) {
		t.Fatalf("shrink is nondeterministic:\n%s\n%s", j1, j2)
	}
}

// TestArtifactRoundTrip: encode → decode → verify survives, and version or
// grammar drift is rejected instead of silently tolerated.
func TestArtifactRoundTrip(t *testing.T) {
	out, err := Run(knownViolation())
	if err != nil {
		t.Fatal(err)
	}
	art, err := Shrink(knownViolation(), out.Violations)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(back); err != nil {
		t.Fatal(err)
	}

	bad := back
	bad.Version = ArtifactVersion + 1
	if _, err := Replay(bad); err == nil {
		t.Fatal("version drift was not rejected")
	}
	if _, err := DecodeArtifact([]byte(`{"version":1,"bogus_field":true}`)); err == nil {
		t.Fatal("unknown artifact field was not rejected")
	}
}

// TestCheckedInArtifactsReproduce guards every stored minimal artifact: if a
// code change stops one from replaying its recorded violations, this test —
// and the CI artifact-reproduction step running it — fails.
func TestCheckedInArtifactsReproduce(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in artifacts under testdata/ — the reproduction gate guards nothing")
	}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			art, err := DecodeArtifact(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(art.Violations) == 0 {
				t.Fatal("artifact records no violations")
			}
			if err := Verify(art); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCampaignSmoke: a small sweep completes and every violating seed ships
// a verified minimal artifact.
func TestCampaignSmoke(t *testing.T) {
	a, err := CheckExplore(Options{Seeds: 10, Start: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != 10 {
		t.Fatalf("campaign covered %d seeds, want 10", len(a.Results))
	}
	for _, r := range a.Results {
		if len(r.Violations) > 0 && r.Shrunk == nil {
			t.Fatalf("seed %d violated without a shrunk artifact", r.Seed)
		}
		if r.Shrunk != nil {
			if err := Verify(*r.Shrunk); err != nil {
				t.Fatalf("seed %d: %v", r.Seed, err)
			}
		}
	}
}

// TestIncrementalAuditCampaign sweeps 500 single-mode schedules — kills,
// bit-flip corruption arms, and mid-commit operation faults — with the full
// checksum walk shadowing every incremental verification (runSingle sets
// Machine.AuditIncremental). Soundness claim under test: the delta protocol
// never validates less than the full walk, i.e. zero audit divergences across
// the whole campaign. The aggregate assertions prove the campaign actually
// exercised the machinery rather than vacuously passing.
func TestIncrementalAuditCampaign(t *testing.T) {
	const want = 500
	var ran int
	var reused, verified int64
	var corruptions, opFaults, kills int
	for seed := int64(1); ran < want; seed++ {
		sch := Generate(seed, "")
		if sch.Mode != "single" {
			continue
		}
		obs, err := runSingle(sch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := obs.Counters["incremental_audit_divergences"]; d != 0 {
			t.Errorf("seed %d: incremental verification passed %d commit(s) the full walk failed", seed, d)
		}
		reused += obs.Counters["checksums_reused"]
		verified += obs.Counters["checksums_verified"]
		corruptions += obs.CorruptionsFired
		opFaults += obs.OpFaultsFired
		for _, ev := range sch.Events {
			if ev.Kind == KindKill {
				kills++
			}
		}
		ran++
	}
	// Non-vacuity: the sweep must have reused cached checksums (the audit has
	// something to shadow), fired real bit flips (the adversarial case), and
	// driven mid-commit faults plus plain kills.
	if reused == 0 {
		t.Fatal("campaign never reused a cached checksum: the incremental path was not exercised")
	}
	if verified == 0 {
		t.Fatal("campaign never verified a checksum")
	}
	if corruptions == 0 {
		t.Fatal("campaign fired no preserved-frame corruption")
	}
	if opFaults == 0 {
		t.Fatal("campaign fired no mid-commit operation fault")
	}
	if kills == 0 {
		t.Fatal("campaign scheduled no kills")
	}
	t.Logf("audit campaign: %d runs, %d kills, %d corruptions, %d op faults, %d reused / %d verified checksums, 0 divergences",
		ran, kills, corruptions, opFaults, reused, verified)
}
