package recovery

import (
	"testing"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/workload"
)

// badPlanApp assembles a restart plan that references an unmapped range, so
// rt.Restart always fails validation.
type badPlanApp struct{ *toyApp }

func (a *badPlanApp) PlanRestart(rt *core.Runtime, ci *kernel.CrashInfo, useUnsafe bool) (core.RestartPlan, string) {
	return core.RestartPlan{
		InfoAddr: a.counter,
		WithHeap: true,
		Ranges:   []linker.Range{{Start: 0x7000_0000, Len: int(mem.PageSize)}},
	}, ""
}

// TestRestartErrorTakesFallback is the regression test for phoenixRestart
// returning the rt.Restart error as a simulator error: a failing
// preserve_exec must count the event and degrade to the default recovery.
func TestRestartErrorTakesFallback(t *testing.T) {
	m := kernel.NewMachine(1)
	app := &badPlanApp{newToyApp()}
	h := NewHarness(m, Config{Mode: ModePhoenix}, app, workload.NewFillSeq(8), nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	h.RunRequests(50)
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatalf("restart error killed the simulation: %v", err)
	}
	if h.Stat.RecoveryFaultFallbacks != 1 || h.Stat.PhoenixRestarts != 0 {
		t.Fatalf("stats %+v", h.Stat)
	}
	if m.Counters.PreservesAborted.Load() != 1 {
		t.Fatalf("counters %s", m.Counters)
	}
	if app.value() >= 50 {
		t.Fatalf("fallback kept preserved state: %d", app.value())
	}
}

// TestInjectedRecoveryFaultFallsBack arms a recovery-path fault, checks the
// harness degrades to a counted fallback, and checks the machine counters
// are exported correctly; the next crash (fault consumed) recovers via
// PHOENIX as usual.
func TestInjectedRecoveryFaultFallsBack(t *testing.T) {
	m := kernel.NewMachine(1)
	app := newToyApp()
	inj := faultinject.New()
	h := NewHarness(m, Config{Mode: ModePhoenix}, app, workload.NewFillSeq(8), inj)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	h.RunRequests(50)
	inj.Arm(faultinject.SitePreserveMove, faultinject.OpFailure)
	inj.Enable()
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if !inj.Fired(faultinject.SitePreserveMove) {
		t.Fatal("armed recovery fault never fired")
	}
	if h.Stat.RecoveryFaultFallbacks != 1 || h.Stat.PhoenixRestarts != 0 {
		t.Fatalf("stats %+v", h.Stat)
	}
	snap := m.Counters.Snapshot()
	if snap["preserves_staged"] != 1 || snap["preserves_aborted"] != 1 ||
		snap["preserves_committed"] != 0 {
		t.Fatalf("counters %s", m.Counters)
	}

	// The fault fires once: the following crash takes the normal PHOENIX
	// path and commits.
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("stats after retry %+v", h.Stat)
	}
	if m.Counters.PreservesCommitted.Load() != 1 {
		t.Fatalf("counters after retry %s", m.Counters)
	}
}

// TestStaleCrossCheckVerdictIgnored is the regression test for stale
// cross-check state: a verdict whose incarnation died before the background
// reference finished must not hot-switch the process that booted after it.
func TestStaleCrossCheckVerdictIgnored(t *testing.T) {
	h, app := ccHarness(t, true) // lying snapshot: verdict would mismatch
	h.RunRequests(50)
	app.crashNext = "segv"
	h.RunRequests(1) // crash #1: PHOENIX restart, cross-check in flight
	if h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("stats %+v", h.Stat)
	}
	app.crashNext = "segv"
	h.RunRequests(1) // crash #2 inside the grace window: fallback restart
	if h.Stat.GraceFallbacks != 1 {
		t.Fatalf("stats %+v", h.Stat)
	}
	if h.CrossCheckResult() != nil {
		t.Fatal("active check from the dead incarnation not cleared")
	}
	// Let the dead incarnation's verdict timer fire, then keep serving.
	h.M.Clock.Advance(time.Second)
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if h.Stat.CrossFallbacks != 0 {
		t.Fatalf("stale verdict triggered a hot-switch: %+v", h.Stat)
	}
}
