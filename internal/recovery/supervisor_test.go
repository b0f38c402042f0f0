package recovery

import (
	"testing"
	"time"
)

// TestSupervisorStateMachine drives the breaker/ladder through scripted
// crash-and-serve traces. Every instant is an explicit simulated timestamp,
// so the tables double as the state machine's specification.
func TestSupervisorStateMachine(t *testing.T) {
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	type step struct {
		at    time.Duration
		serve bool // false = crash
		// expectations after the step:
		level     Level
		tripped   bool
		exhausted bool
		backoff   time.Duration // checked only for crashes
		deesc     bool          // checked only for serves
	}
	cfg := SupervisorConfig{
		BreakerK: 3, Window: sec(60),
		BackoffBase: sec(1), BackoffMax: sec(8),
		StablePeriod: sec(30), RetryBudget: 10,
	}
	for _, tc := range []struct {
		name  string
		cfg   SupervisorConfig
		steps []step
	}{
		{
			name: "breaker trips on the Kth crash inside the window",
			cfg:  cfg,
			steps: []step{
				{at: sec(0), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(5), level: LevelPhoenix, backoff: sec(2)},
				{at: sec(10), level: LevelBuiltin, tripped: true, backoff: sec(4)},
			},
		},
		{
			name: "crashes outside the window never accumulate",
			cfg:  cfg,
			steps: []step{
				{at: sec(0), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(70), level: LevelPhoenix, backoff: sec(2)},
				{at: sec(140), level: LevelPhoenix, backoff: sec(4)},
				{at: sec(210), level: LevelPhoenix, backoff: sec(8)},
			},
		},
		{
			name: "full ladder: each rung gets a fresh window, vanilla is the floor",
			cfg:  cfg,
			steps: []step{
				{at: sec(0), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(1), level: LevelPhoenix, backoff: sec(2)},
				{at: sec(2), level: LevelBuiltin, tripped: true, backoff: sec(4)},
				// The trip cleared the window: builtin needs K fresh crashes.
				{at: sec(3), level: LevelBuiltin, backoff: sec(8)},
				{at: sec(4), level: LevelBuiltin, backoff: sec(8)},
				{at: sec(5), level: LevelVanilla, tripped: true, backoff: sec(8)},
				// At the floor the breaker has nowhere to go: no more trips.
				{at: sec(6), level: LevelVanilla, backoff: sec(8)},
			},
		},
		{
			name: "backoff caps at BackoffMax and resets after a stable period",
			cfg:  cfg,
			steps: []step{
				{at: sec(0), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(61), level: LevelPhoenix, backoff: sec(2)},
				{at: sec(122), level: LevelPhoenix, backoff: sec(4)},
				{at: sec(183), level: LevelPhoenix, backoff: sec(8)},
				{at: sec(244), level: LevelPhoenix, backoff: sec(8)}, // capped
				{at: sec(280), serve: true, level: LevelPhoenix},     // stable: resets consec
				{at: sec(300), level: LevelPhoenix, backoff: sec(1)}, // backoff restarts
			},
		},
		{
			name: "retry budget exhausts instead of looping",
			cfg:  SupervisorConfig{BreakerK: 100, Window: sec(60), BackoffBase: sec(1), BackoffMax: sec(1), StablePeriod: sec(30), RetryBudget: 3},
			steps: []step{
				{at: sec(0), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(1), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(2), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(3), level: LevelPhoenix, exhausted: true},
			},
		},
		{
			name: "de-escalation walks back one rung per stable period",
			cfg:  cfg,
			steps: []step{
				{at: sec(0), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(1), level: LevelPhoenix, backoff: sec(2)},
				{at: sec(2), level: LevelBuiltin, tripped: true, backoff: sec(4)},
				{at: sec(3), level: LevelBuiltin, backoff: sec(8)},
				{at: sec(4), level: LevelBuiltin, backoff: sec(8)},
				{at: sec(5), level: LevelVanilla, tripped: true, backoff: sec(8)},
				// Serving before the stable period elapses changes nothing.
				{at: sec(20), serve: true, level: LevelVanilla},
				// One stable period: vanilla → builtin, and the stability
				// clock restarts — serving right after must not skip a rung.
				{at: sec(35), serve: true, level: LevelBuiltin, deesc: true},
				{at: sec(36), serve: true, level: LevelBuiltin},
				// Another full period: builtin → phoenix.
				{at: sec(66), serve: true, level: LevelPhoenix, deesc: true},
				{at: sec(100), serve: true, level: LevelPhoenix},
			},
		},
		{
			name: "crash during climb-back restarts the breaker at the current rung",
			cfg:  cfg,
			steps: []step{
				{at: sec(0), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(1), level: LevelPhoenix, backoff: sec(2)},
				{at: sec(2), level: LevelBuiltin, tripped: true, backoff: sec(4)},
				{at: sec(35), serve: true, level: LevelPhoenix, deesc: true},
				// New episode: consec reset, fresh window at phoenix.
				{at: sec(40), level: LevelPhoenix, backoff: sec(1)},
				{at: sec(41), level: LevelPhoenix, backoff: sec(2)},
				{at: sec(42), level: LevelBuiltin, tripped: true, backoff: sec(4)},
			},
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := NewSupervisor(tc.cfg)
			for i, st := range tc.steps {
				if st.serve {
					de, to := s.NoteServing(st.at)
					if de != st.deesc || to != st.level {
						t.Fatalf("step %d (serve@%v): deesc=%v to=%v, want deesc=%v level=%v",
							i, st.at, de, to, st.deesc, st.level)
					}
					continue
				}
				d := s.OnCrash(st.at)
				if d.Exhausted != st.exhausted {
					t.Fatalf("step %d (crash@%v): exhausted=%v, want %v", i, st.at, d.Exhausted, st.exhausted)
				}
				if st.exhausted {
					continue
				}
				if d.Level != st.level || d.Tripped != st.tripped || d.Backoff != st.backoff {
					t.Fatalf("step %d (crash@%v): level=%v tripped=%v backoff=%v, want level=%v tripped=%v backoff=%v",
						i, st.at, d.Level, d.Tripped, d.Backoff, st.level, st.tripped, st.backoff)
				}
				if s.Level() != st.level {
					t.Fatalf("step %d: Level() = %v, want %v", i, s.Level(), st.level)
				}
			}
		})
	}
}

// TestSupervisorDefaults checks zero-config fill and that replaying the same
// trace twice is bit-identical (determinism is what lets campaigns replay).
func TestSupervisorDefaults(t *testing.T) {
	run := func() []Decision {
		s := NewSupervisor(SupervisorConfig{})
		var ds []Decision
		for i := 0; i < 8; i++ {
			ds = append(ds, s.OnCrash(time.Duration(i)*5*time.Second))
		}
		return ds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at crash %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Defaults: K=3 so the third crash trips, base 250ms doubling.
	if !a[2].Tripped || a[2].Level != LevelBuiltin {
		t.Fatalf("default breaker did not trip on 3rd crash: %+v", a[2])
	}
	if a[0].Backoff != 250*time.Millisecond || a[1].Backoff != 500*time.Millisecond {
		t.Fatalf("default backoff wrong: %+v %+v", a[0], a[1])
	}
	for _, d := range a {
		if d.Backoff > 8*time.Second {
			t.Fatalf("backoff exceeded default cap: %+v", d)
		}
		if d.Exhausted {
			t.Fatalf("default budget exhausted within 8 crashes: %+v", d)
		}
	}
}

func TestSupervisorConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SupervisorConfig
		ok   bool
	}{
		{"zero value is fine (defaults)", SupervisorConfig{}, true},
		{"explicit sane config", SupervisorConfig{BreakerK: 2, Window: time.Minute, BackoffBase: time.Second, BackoffMax: 4 * time.Second, StablePeriod: time.Minute, RetryBudget: 8}, true},
		{"negative K", SupervisorConfig{BreakerK: -1}, false},
		{"K of one trips every crash", SupervisorConfig{BreakerK: 1}, false},
		{"negative window", SupervisorConfig{Window: -time.Second}, false},
		{"negative backoff", SupervisorConfig{BackoffBase: -time.Second}, false},
		{"max below base", SupervisorConfig{BackoffBase: 5 * time.Second, BackoffMax: time.Second}, false},
		{"negative stable period", SupervisorConfig{StablePeriod: -time.Minute}, false},
		{"negative budget", SupervisorConfig{RetryBudget: -2}, false},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"plain phoenix", Config{Mode: ModePhoenix}, true},
		{"phoenix with everything", Config{Mode: ModePhoenix, UnsafeRegions: true, CrossCheck: true, Supervise: true, DisableChecksums: true}, true},
		{"unsafe regions without phoenix", Config{Mode: ModeBuiltin, UnsafeRegions: true}, false},
		{"cross-check without phoenix", Config{Mode: ModeVanilla, CrossCheck: true}, false},
		{"checksum toggle without phoenix", Config{Mode: ModeCRIU, DisableChecksums: true}, false},
		{"supervise without phoenix", Config{Mode: ModeBuiltin, Supervise: true}, false},
		{"negative checkpoint interval", Config{Mode: ModeBuiltin, CheckpointInterval: -time.Second}, false},
		{"negative watchdog", Config{Mode: ModePhoenix, WatchdogTimeout: -time.Second}, false},
		{"invalid mode", Config{Mode: Mode(42)}, false},
		{"bad supervisor config surfaces", Config{Mode: ModePhoenix, Supervise: true, Supervisor: SupervisorConfig{BreakerK: 1}}, false},
		{"bad supervisor config ignored when not supervising", Config{Mode: ModePhoenix, Supervisor: SupervisorConfig{BreakerK: 1}}, true},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestDriverEscalationLadder drives a supervised harness through the full
// ladder with the toy app: PHOENIX restart, trip to builtin, trip to
// vanilla (persistence forced off), stable-period walk back to PHOENIX
// (persistence restored), and a final clean PHOENIX recovery. Backoff is
// asserted to the exact simulated duration — everything flows through
// simclock, so the trace is deterministic.
func TestDriverEscalationLadder(t *testing.T) {
	h, app := harness(t, Config{
		Mode: ModePhoenix, Supervise: true,
		Supervisor: SupervisorConfig{
			BreakerK: 2, Window: time.Hour,
			BackoffBase: 50 * time.Millisecond, BackoffMax: time.Second,
			StablePeriod: 10 * time.Second, RetryBudget: 10,
		},
	})
	h.RunRequests(30)

	crash := func() {
		app.crashNext = "segv"
		if err := h.RunRequests(5); err != nil {
			t.Fatal(err)
		}
	}

	crash() // #1: recovers via PHOENIX
	if h.EscalationLevel() != LevelPhoenix || h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("after crash 1: level=%v stats=%+v", h.EscalationLevel(), h.Stat)
	}
	crash() // #2: breaker trips → builtin
	if h.EscalationLevel() != LevelBuiltin || h.Stat.BreakerTrips != 1 {
		t.Fatalf("after crash 2: level=%v stats=%+v", h.EscalationLevel(), h.Stat)
	}
	if !app.persistence {
		t.Fatal("builtin rung must keep persistence on")
	}
	crash() // #3: builtin restart, fresh window at this rung
	if h.EscalationLevel() != LevelBuiltin {
		t.Fatalf("after crash 3: level=%v", h.EscalationLevel())
	}
	crash() // #4: second trip → vanilla, persistence off
	if h.EscalationLevel() != LevelVanilla || h.Stat.BreakerTrips != 2 {
		t.Fatalf("after crash 4: level=%v stats=%+v", h.EscalationLevel(), h.Stat)
	}
	if app.persistence {
		t.Fatal("vanilla rung must run with persistence off")
	}
	// Backoff doubles per consecutive crash: 50+100+200+400 ms, exactly.
	if want := 750 * time.Millisecond; h.Stat.BackoffTotal != want {
		t.Fatalf("BackoffTotal = %v, want %v", h.Stat.BackoffTotal, want)
	}

	// Stable serving walks the ladder back one rung per period.
	h.M.Clock.Advance(10 * time.Second)
	h.RunRequests(3)
	if h.EscalationLevel() != LevelBuiltin || h.Stat.Deescalations != 1 {
		t.Fatalf("after first stable period: level=%v stats=%+v", h.EscalationLevel(), h.Stat)
	}
	if !app.persistence {
		t.Fatal("de-escalation to builtin must restore persistence")
	}
	h.M.Clock.Advance(10 * time.Second)
	h.RunRequests(3)
	if h.EscalationLevel() != LevelPhoenix || h.Stat.Deescalations != 2 {
		t.Fatalf("after second stable period: level=%v stats=%+v", h.EscalationLevel(), h.Stat)
	}

	// Back at PHOENIX with the episode reset: a clean crash preserves again,
	// with the backoff restarting from its base.
	crash()
	if h.Stat.PhoenixRestarts != 2 {
		t.Fatalf("post-recovery crash did not use PHOENIX: %+v", h.Stat)
	}
	if want := 800 * time.Millisecond; h.Stat.BackoffTotal != want {
		t.Fatalf("BackoffTotal = %v, want %v (backoff must reset after stability)", h.Stat.BackoffTotal, want)
	}

	kinds := map[EventKind]int{}
	for _, e := range h.Stat.Events {
		kinds[e.Kind]++
	}
	if kinds[EvBreakerTrip] != 2 || kinds[EvEscalate] != 2 || kinds[EvDeescalate] != 2 || kinds[EvBackoff] != 5 {
		t.Fatalf("event counts %v", kinds)
	}
	if h.Stat.BreakerTrips != 2 || h.Stat.Escalations != 2 || h.Stat.Deescalations != 2 {
		t.Fatalf("ladder accounting torn: %+v", h.Stat)
	}
}

// TestDriverRetryBudgetSurfaces pins the unbounded-crash-loop bound: once
// the budget is spent the harness surfaces a terminal error instead of
// restarting forever.
func TestDriverRetryBudgetSurfaces(t *testing.T) {
	h, app := harness(t, Config{
		Mode: ModePhoenix, Supervise: true,
		Supervisor: SupervisorConfig{
			BreakerK: 2, Window: time.Hour,
			BackoffBase: time.Millisecond, BackoffMax: time.Millisecond,
			StablePeriod: time.Hour, RetryBudget: 3,
		},
	})
	h.RunRequests(10)
	var err error
	for i := 0; i < 6 && err == nil; i++ {
		app.crashNext = "segv"
		err = h.RunRequests(2)
	}
	if err == nil {
		t.Fatal("retry budget never surfaced an error")
	}
	if h.Stat.Failures != 4 {
		t.Fatalf("failures = %d, want 4 (budget 3 + the exhausting crash)", h.Stat.Failures)
	}
}

// TestNewHarnessRejectsInvalidConfig pins the construction contract: a
// nonsensical config is a programming error and panics with the validation
// message rather than silently misbehaving mid-run.
func TestNewHarnessRejectsInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewHarness accepted CrossCheck without ModePhoenix")
		}
		if err, ok := r.(error); !ok || err.Error() == "" {
			t.Fatalf("panic payload is not a descriptive error: %v", r)
		}
	}()
	harness(t, Config{Mode: ModeVanilla, CrossCheck: true})
}
