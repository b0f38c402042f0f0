package recovery

import (
	"errors"
	"testing"
	"time"

	"phoenix/internal/kernel"
	"phoenix/internal/workload"
)

// TestRunUntilWithSupervisedCrashes drives RunUntil through repeated crashes
// under the supervisor: the deadline must still be reached, every crash must
// be charged backoff, and the breaker must walk the ladder down.
func TestRunUntilWithSupervisedCrashes(t *testing.T) {
	h, app := harness(t, Config{
		Mode:      ModePhoenix,
		Supervise: true,
		Supervisor: SupervisorConfig{
			BreakerK: 2, Window: time.Hour, BackoffBase: 50 * time.Millisecond,
			StablePeriod: time.Hour, RetryBudget: 16,
		},
	})
	for i := 0; i < 4; i++ {
		app.crashNext = "segv"
		deadline := h.M.Clock.Now() + 20*time.Millisecond
		if err := h.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
		if h.M.Clock.Now() < deadline {
			t.Fatalf("crash %d: clock %v short of deadline %v", i, h.M.Clock.Now(), deadline)
		}
	}
	if h.Stat.Failures != 4 {
		t.Fatalf("failures = %d, want 4", h.Stat.Failures)
	}
	if h.Stat.BackoffTotal == 0 {
		t.Fatal("supervised crashes charged no backoff")
	}
	// BreakerK=2, history resets on each trip: crash 2 trips PHOENIX→Builtin,
	// crash 4 trips Builtin→Vanilla.
	if h.Stat.Escalations != 2 || h.EscalationLevel() != LevelVanilla {
		t.Fatalf("escalations=%d level=%v, want 2 escalations down to Vanilla",
			h.Stat.Escalations, h.EscalationLevel())
	}
	if h.Stat.Requests == 0 {
		t.Fatal("no requests ran")
	}
}

// TestRunUntilSurfacesRetryExhaustion: when every request crashes and the
// budget runs out, RunUntil must return the terminal error instead of
// spinning forever.
func TestRunUntilSurfacesRetryExhaustion(t *testing.T) {
	m := kernel.NewMachine(1)
	app := newToyApp()
	h := NewHarness(m, Config{
		Mode:      ModePhoenix,
		Supervise: true,
		Supervisor: SupervisorConfig{
			BreakerK: 2, Window: time.Hour, BackoffBase: time.Millisecond,
			StablePeriod: time.Hour, RetryBudget: 3,
		},
	}, app, workload.NewFillSeq(8), nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		app.crashNext = "segv"
		err = h.RunUntil(h.M.Clock.Now() + 10*time.Millisecond)
	}
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("exhausted retry budget surfaced %v, want ErrRetryBudget", err)
	}
}

// TestHotSwitchLeavesLadderAlone: a cross-check mismatch hot-switch is a
// planned swap, not a crash — it must not move the escalation ladder or
// consume restart budget.
func TestHotSwitchLeavesLadderAlone(t *testing.T) {
	m := kernel.NewMachine(1)
	app := &ccApp{toyApp: newToyApp(), lie: true}
	h := NewHarness(m, Config{
		Mode: ModePhoenix, CrossCheck: true,
		Supervise: true,
		Supervisor: SupervisorConfig{
			BreakerK: 3, Window: time.Hour, BackoffBase: time.Millisecond,
			StablePeriod: time.Hour, RetryBudget: 16,
		},
	}, app, workload.NewFillSeq(8), nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := h.RunRequests(50); err != nil {
		t.Fatal(err)
	}
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	crashesBefore := h.sup.ConsecutiveCrashes()
	h.M.Clock.Advance(time.Second) // let the background verdict fire
	if err := h.RunRequests(5); err != nil {
		t.Fatal(err)
	}
	if h.Stat.CrossFallbacks != 1 {
		t.Fatalf("stats %+v: hot switch did not happen", h.Stat)
	}
	if h.EscalationLevel() != LevelPhoenix {
		t.Fatalf("hot switch moved the ladder to %v", h.EscalationLevel())
	}
	if h.sup.ConsecutiveCrashes() > crashesBefore {
		t.Fatalf("hot switch consumed restart budget (%d -> %d)",
			crashesBefore, h.sup.ConsecutiveCrashes())
	}
	if h.Stat.Escalations != 0 {
		t.Fatalf("stats %+v: hot switch escalated", h.Stat)
	}
	// The switch restored the validated state and serving continued.
	if app.value() < 50 {
		t.Fatalf("counter = %d after hot switch", app.value())
	}
}

// TestHotSwitchThenLadderStillWorks: after a hot switch, real crashes must
// still drive the breaker — the swap must leave the supervisor functional.
func TestHotSwitchThenLadderStillWorks(t *testing.T) {
	m := kernel.NewMachine(1)
	app := &ccApp{toyApp: newToyApp(), lie: true}
	h := NewHarness(m, Config{
		Mode: ModePhoenix, CrossCheck: true,
		Supervise: true,
		Supervisor: SupervisorConfig{
			BreakerK: 2, Window: time.Hour, BackoffBase: time.Millisecond,
			StablePeriod: time.Hour, RetryBudget: 16,
		},
	}, app, workload.NewFillSeq(8), nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := h.RunRequests(20); err != nil {
		t.Fatal(err)
	}
	app.crashNext = "segv" // crash 1: supervised PHOENIX restart
	if err := h.RunRequests(5); err != nil {
		t.Fatal(err)
	}
	h.M.Clock.Advance(time.Second)
	if err := h.RunRequests(5); err != nil { // processes the hot switch
		t.Fatal(err)
	}
	if h.Stat.CrossFallbacks != 1 {
		t.Fatalf("stats %+v: no hot switch", h.Stat)
	}
	app.lie = false        // subsequent checks pass; isolate the breaker
	app.crashNext = "segv" // crash 2: trips BreakerK=2
	if err := h.RunRequests(5); err != nil {
		t.Fatal(err)
	}
	if h.Stat.Escalations != 1 || h.EscalationLevel() != LevelBuiltin {
		t.Fatalf("escalations=%d level=%v, want breaker trip to Builtin after second real crash",
			h.Stat.Escalations, h.EscalationLevel())
	}
}

// TestEventCapBoundsEvents: the bounded event ring must stay under the cap,
// count what it dropped, keep the newest entries, and stay time-ordered.
func TestEventCapBoundsEvents(t *testing.T) {
	defer func(n int) { eventCap = n }(eventCap)
	eventCap = 8
	h, app := harness(t, Config{Mode: ModePhoenix})
	for i := 0; i < 20; i++ {
		app.crashNext = "segv"
		if err := h.RunRequests(2); err != nil {
			t.Fatal(err)
		}
	}
	ev := h.Stat.Events
	if len(ev) > 8 {
		t.Fatalf("event ring holds %d entries, cap 8", len(ev))
	}
	if h.Stat.DroppedEvents == 0 {
		t.Fatal("20 crashes under cap 8 dropped nothing")
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("events out of order: %v after %v", ev[i].At, ev[i-1].At)
		}
	}
	// The newest event survived the trimming.
	if ev[len(ev)-1].At < ev[0].At {
		t.Fatal("ring did not keep the newest entries")
	}
}
