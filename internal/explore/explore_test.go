package explore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phoenix/internal/apps/registry"
	"phoenix/internal/faultinject"
	"phoenix/internal/recovery"
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

// TestArtifactRoundTrip: encode → decode → verify survives, for a shrunk
// artifact and for a pinned schedule that uses a rung and a disarm event,
// and version or grammar drift is rejected instead of silently tolerated.
func TestArtifactRoundTrip(t *testing.T) {
	out, err := Run(knownViolation())
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := Shrink(knownViolation(), out.Violations)
	if err != nil {
		t.Fatal(err)
	}
	pinned := knownViolation()
	pinned.Rung = "phoenix"
	pinned.Events = append([]Event{
		{Kind: KindArm, At: 5, Site: faultinject.SitePreservePlan},
		{Kind: KindDisarm, At: 8, Site: faultinject.SitePreservePlan},
	}, pinned.Events...)
	out, err = Run(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 || out.OpFaultsFired != 0 {
		t.Fatalf("pinned schedule: want a violation and no fired plan fault, got %+v", out)
	}
	var back Artifact
	for _, art := range []Artifact{shrunk, {Version: ArtifactVersion, Schedule: pinned, Violations: out.Violations}} {
		data, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		back, err = DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := json.Marshal(back); string(again) != string(data) {
			t.Fatalf("artifact changed across a round trip:\n%s\n%s", data, again)
		}
		if err := Verify(back); err != nil {
			t.Fatal(err)
		}
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

// TestRungShapesHarness runs one domain fault under each rung and checks the
// harness shape the rung pins and the rung that recovered the fault: only
// the rewind floor rolls it back, the microreboot floor cannot attribute it
// to a component and escalates to PHOENIX, and the builtin and vanilla rungs
// restart. The recovery and the run's end are recorded at the floor, and
// every run upholds every oracle.
func TestRungShapesHarness(t *testing.T) {
	for _, tc := range []struct {
		rung      string
		floor     recovery.Level
		domains   bool
		recovered string
	}{
		{"", recovery.LevelPhoenix, false, "phoenix"},
		{"rewind", recovery.LevelRewind, true, "rewind"},
		{"microreboot", recovery.LevelMicroreboot, false, "phoenix"},
		{"phoenix", recovery.LevelPhoenix, false, "phoenix"},
		{"builtin", recovery.LevelBuiltin, false, "restart"},
		{"vanilla", recovery.LevelVanilla, false, "restart"},
	} {
		obs, err := Observe(Schedule{Seed: 5, App: "kvstore", Mode: "single", Steps: 20, Rung: tc.rung,
			Events: []Event{{Kind: KindDomainFault, At: 10, Site: midRequestFaults["kvstore"]}}})
		if err != nil {
			t.Fatalf("rung %q: %v", tc.rung, err)
		}
		if obs.Floor != tc.floor || obs.Domains != tc.domains {
			t.Errorf("rung %q: floor %v domains %v, want %v %v", tc.rung, obs.Floor, obs.Domains, tc.floor, tc.domains)
		}
		if len(obs.Recoveries) != 1 || obs.Recoveries[0].Level != tc.floor.String() || obs.FinalLevel != tc.floor {
			t.Errorf("rung %q: recoveries %+v final level %v, want one at %v", tc.rung, obs.Recoveries, obs.FinalLevel, tc.floor)
		}
		recovered := ""
		switch s := obs.Stats; {
		case s.Failures != 1 || s.Microreboots != 0 || s.Rewinds+s.PhoenixRestarts+s.OtherRestarts != 1:
		case s.Rewinds == 1:
			recovered = "rewind"
		case s.PhoenixRestarts == 1:
			recovered = "phoenix"
		default:
			recovered = "restart"
		}
		if recovered != tc.recovered {
			t.Errorf("rung %q: recovered by %q (%+v), want %q", tc.rung, recovered, obs.Stats, tc.recovered)
		}
		if vs := Judge(obs); len(vs) != 0 {
			t.Errorf("rung %q: violations %+v", tc.rung, vs)
		}
	}
}

// TestVanillaRungStaleRead: a vanilla-pinned run restarts with persistence
// off, so the durability oracle's stale-read clause judges it. A pre-crash
// key read back effective after the restart is flagged.
func TestVanillaRungStaleRead(t *testing.T) {
	obs, err := Observe(Schedule{Seed: 1, App: "kvstore", Mode: "single", Steps: 40, Rung: "vanilla",
		Events: []Event{{Kind: KindKill, At: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Judge(obs); len(vs) != 0 {
		t.Fatalf("violations %+v", vs)
	}
	key := ""
	for _, st := range obs.Steps[:20] {
		if st.OK && (st.Op == "INSERT" || st.Op == "UPDATE") {
			key = st.Key
		}
	}
	if key == "" {
		t.Fatal("no write acknowledged before the kill")
	}
	obs.Steps = append(obs.Steps, registry.TraceStep{Index: len(obs.Steps), Op: "READ", Key: key, OK: true, Effective: true})
	if vs := Judge(obs); len(vs) != 1 || vs[0].Oracle != "durability" || !strings.Contains(vs[0].Msg, "stale read") {
		t.Fatalf("forged read of %q after the vanilla restart: violations %+v", key, vs)
	}
}

// TestRungRejectsContradictions: an unknown rung and every contradictory
// schedule are errors from Run, never a harness panic.
func TestRungRejectsContradictions(t *testing.T) {
	cases := map[string]Schedule{
		"unknown rung":             {Rung: "reboot"},
		"checksums off on builtin": {Rung: "builtin", DisableChecksums: true},
		"checksums off on vanilla": {Rung: "vanilla", DisableChecksums: true},
		"rung on a fabric":         {Rung: "phoenix", Mode: "shard", Shards: 1, Replicas: 3},
	}
	for _, rung := range []string{"rewind", "microreboot", "phoenix", "builtin", "vanilla"} {
		cases[rung+" with domains"] = Schedule{Rung: rung, Domains: true}
	}
	cases["control"] = Schedule{Rung: "builtin"}
	for name, sch := range cases {
		sch.Seed, sch.App, sch.Steps = 1, "kvstore", 5
		if sch.Mode == "" {
			sch.Mode = "single"
		}
		if _, err := Run(sch); (err == nil) != (name == "control") {
			t.Errorf("%s: Run error %v", name, err)
		}
	}
}

// TestDisarmRetiresArming: a corruption armed and disarmed before a kill
// fires nothing, and the kill preserves cleanly. Without the disarm the same
// kill catches the corruption and falls back.
func TestDisarmRetiresArming(t *testing.T) {
	sch := Schedule{Seed: 3, App: "kvstore", Mode: "single", Steps: 40, Events: []Event{
		{Kind: KindArm, At: 10, Site: faultinject.SitePreserveCorrupt},
		{Kind: KindDisarm, At: 20, Site: faultinject.SitePreserveCorrupt},
		{Kind: KindKill, At: 30},
	}}
	for _, disarm := range []bool{true, false} {
		if !disarm {
			sch.Events = append(sch.Events[:1], sch.Events[2])
		}
		obs, err := Observe(sch)
		if err != nil {
			t.Fatal(err)
		}
		if vs := Judge(obs); len(vs) != 0 {
			t.Fatalf("disarm=%v: violations %+v", disarm, vs)
		}
		fired := obs.CorruptionsFired != 0 || obs.Counters["checksum_mismatches"] != 0
		if len(obs.Recoveries) != 1 || obs.Recoveries[0].CleanPreserve != disarm || fired == disarm {
			t.Errorf("disarm=%v: fired=%v recoveries %+v", disarm, fired, obs.Recoveries)
		}
	}
}

// TestRetryBudgetTerminates: back-to-back kills on the supervised ladder
// exhaust the retry budget, and the run ends early with Terminated set, no
// error and no violation.
func TestRetryBudgetTerminates(t *testing.T) {
	sch := Schedule{Seed: 1, App: "kvstore", Mode: "single", Steps: 30}
	for i := 0; i < 20; i++ {
		sch.Events = append(sch.Events, Event{Kind: KindKill, At: 5})
	}
	out, err := Run(sch)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Terminated, recovery.ErrRetryBudget.Error()) || len(out.Violations) != 0 {
		t.Fatalf("terminated %q with violations %+v", out.Terminated, out.Violations)
	}
	if out.Recoveries >= 20 || out.Requests != 5 {
		t.Fatalf("run went on after the budget: %d recoveries, %d requests", out.Recoveries, out.Requests)
	}
	t.Logf("stopped after %d crashes at %s: %s", out.Recoveries, out.FinalLevel, out.Terminated)
}

// TestBuiltinRungRecoversCheckpoint: the builtin rung checkpoints on the
// ladder's 5 ms cadence, so a builtin recovery loads persisted state. A
// kvstore schedule that crosses a checkpoint at step 29 (a 6 ms calm) and
// is killed at step 30 answers every later read of a key written before
// that checkpoint effectively; the same schedule on the vanilla rung, which
// persists nothing, answers none of them.
func TestBuiltinRungRecoversCheckpoint(t *testing.T) {
	for _, rung := range []string{"builtin", "vanilla"} {
		obs, err := Observe(Schedule{Seed: 7, App: "kvstore", Mode: "single", Steps: 120, Rung: rung, Events: []Event{
			{Kind: KindCalm, At: 29, DurUs: 6000},
			{Kind: KindKill, At: 30},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if vs := Judge(obs); len(vs) != 0 {
			t.Fatalf("%s: violations %+v", rung, vs)
		}
		written := map[string]bool{}
		for _, st := range obs.Steps[:29] {
			if st.Op != "READ" && st.OK {
				written[st.Key] = true
			}
		}
		reads, effective := 0, 0
		for _, st := range obs.Steps[30:] {
			if st.Op == "READ" && written[st.Key] {
				reads++
				if st.Effective {
					effective++
				}
			}
		}
		want := reads
		if rung == "vanilla" {
			want = 0
		}
		if reads == 0 || effective != want {
			t.Errorf("%s: %d of %d reads of checkpointed keys effective after the kill, want %d",
				rung, effective, reads, want)
		}
	}
}
