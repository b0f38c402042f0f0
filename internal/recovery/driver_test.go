package recovery

import (
	"fmt"
	"testing"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/workload"
)

// toyApp is a minimal App: one counter in simulated memory, optional
// persistence to one disk file, crash on demand.
type toyApp struct {
	img         *linker.Image
	rt          *core.Runtime
	counter     mem.VAddr
	persistence bool
	crashNext   string // "", "segv", "hang", "unsafe"
	boots       int
}

func newToyApp() *toyApp {
	b := linker.NewBuilder("toy", 0x0010_0000)
	b.Var("cfg", 8, linker.SecData)
	return &toyApp{img: b.Build()}
}

func (a *toyApp) Name() string         { return "toy" }
func (a *toyApp) Image() *linker.Image { return a.img }
func (a *toyApp) SetPersistence(on bool) {
	a.persistence = on
}

func (a *toyApp) Main(rt *core.Runtime) error {
	a.rt = rt
	a.boots++
	h, err := rt.OpenHeap(heap.Options{})
	if err != nil {
		return err
	}
	if rt.IsRecoveryMode() {
		a.counter = rt.RecoveryInfo()
		rt.FinishRecovery(nil)
		return nil
	}
	a.counter = h.Alloc(8)
	var v uint64
	if a.persistence {
		if data, ok := rt.Proc().Machine.Disk.ReadFile("toy.ckpt"); ok && len(data) == 8 {
			for i := 0; i < 8; i++ {
				v |= uint64(data[i]) << (8 * i)
			}
		}
	}
	rt.Proc().AS.WriteU64(a.counter, v)
	rt.FinishRecovery(nil)
	return nil
}

func (a *toyApp) value() uint64 { return a.rt.Proc().AS.ReadU64(a.counter) }

func (a *toyApp) Handle(req *workload.Request) (bool, bool) {
	m := a.rt.Proc().Machine
	m.Clock.Advance(m.Model.RequestBase)
	switch a.crashNext {
	case "segv":
		a.crashNext = ""
		a.rt.Proc().AS.ReadU64(0xBAD000)
	case "hang":
		a.crashNext = ""
		panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "toy hang"})
	case "unsafe":
		a.crashNext = ""
		a.rt.UnsafeBegin("toy")
		a.rt.Proc().AS.ReadU64(0xBAD000)
	}
	a.rt.Proc().AS.WriteU64(a.counter, a.value()+1)
	return true, true
}

func (a *toyApp) Checkpoint() {
	if !a.persistence {
		return
	}
	v := a.value()
	buf := make([]byte, 8)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	a.rt.Proc().Machine.Disk.WriteFile("toy.ckpt", buf)
}

func (a *toyApp) PlanRestart(rt *core.Runtime, ci *kernel.CrashInfo, useUnsafe bool) (core.RestartPlan, string) {
	if useUnsafe && !rt.IsSafe("toy") {
		return core.RestartPlan{}, "unsafe region: toy"
	}
	return core.RestartPlan{InfoAddr: a.counter, WithHeap: true}, ""
}

func (a *toyApp) Reattach(rt *core.Runtime) { a.rt = rt }

func (a *toyApp) Dump() core.StateDump {
	return core.StateDump{"counter": fmt.Sprint(a.value())}
}

func (a *toyApp) CrossCheck(rt *core.Runtime) (core.CrossCheckSpec, bool) {
	return core.CrossCheckSpec{}, false
}

func harness(t *testing.T, cfg Config) (*Harness, *toyApp) {
	t.Helper()
	m := kernel.NewMachine(1)
	app := newToyApp()
	h := NewHarness(m, cfg, app, workload.NewFillSeq(8), nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return h, app
}

func TestCleanRun(t *testing.T) {
	h, app := harness(t, Config{Mode: ModeVanilla})
	if err := h.RunRequests(100); err != nil {
		t.Fatal(err)
	}
	if app.value() != 100 || h.Stat.Failures != 0 {
		t.Fatalf("value=%d stats=%+v", app.value(), h.Stat)
	}
}

func TestVanillaLosesCounter(t *testing.T) {
	h, app := harness(t, Config{Mode: ModeVanilla})
	h.RunRequests(50)
	app.crashNext = "segv"
	if err := h.RunRequests(50); err != nil {
		t.Fatal(err)
	}
	// 50 before + 49 after (crashing request lost), counter reset at crash.
	if app.value() != 49 {
		t.Fatalf("value = %d, want 49", app.value())
	}
	if h.Stat.OtherRestarts != 1 {
		t.Fatalf("stats %+v", h.Stat)
	}
}

func TestBuiltinRestoresCheckpoint(t *testing.T) {
	h, app := harness(t, Config{Mode: ModeBuiltin, CheckpointInterval: time.Millisecond})
	h.RunRequests(100)
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	// Checkpoints land every ~80 requests at this cadence; at most one
	// interval of work is lost.
	if app.value() < 80 {
		t.Fatalf("builtin lost too much: %d", app.value())
	}
}

func TestCRIURestoresImage(t *testing.T) {
	h, app := harness(t, Config{Mode: ModeCRIU, CheckpointInterval: time.Millisecond})
	h.RunRequests(100)
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if app.value() < 80 {
		t.Fatalf("criu lost too much: %d", app.value())
	}
	if h.Stat.CheckpointsTaken == 0 {
		t.Fatal("no criu snapshots")
	}
}

func TestPhoenixPreservesCounter(t *testing.T) {
	h, app := harness(t, Config{Mode: ModePhoenix, UnsafeRegions: true})
	h.RunRequests(50)
	app.crashNext = "segv"
	if err := h.RunRequests(50); err != nil {
		t.Fatal(err)
	}
	if app.value() != 99 { // only the crashing request lost
		t.Fatalf("value = %d, want 99", app.value())
	}
	if h.Stat.PhoenixRestarts != 1 || app.boots != 2 {
		t.Fatalf("stats %+v boots=%d", h.Stat, app.boots)
	}
}

func TestPhoenixUnsafeFallback(t *testing.T) {
	h, app := harness(t, Config{Mode: ModePhoenix, UnsafeRegions: true})
	h.RunRequests(50)
	app.crashNext = "unsafe"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if h.Stat.UnsafeFallbacks != 1 || h.Stat.PhoenixRestarts != 0 {
		t.Fatalf("stats %+v", h.Stat)
	}
	if app.value() >= 50 {
		t.Fatalf("fallback kept state: %d", app.value())
	}
}

func TestPhoenixUnsafeIgnoredUnderN(t *testing.T) {
	h, app := harness(t, Config{Mode: ModePhoenix, UnsafeRegions: false})
	h.RunRequests(50)
	app.crashNext = "unsafe"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if h.Stat.PhoenixRestarts != 1 || h.Stat.UnsafeFallbacks != 0 {
		t.Fatalf("stats %+v", h.Stat)
	}
}

func TestWatchdogDwellOnHang(t *testing.T) {
	h, app := harness(t, Config{Mode: ModePhoenix, WatchdogTimeout: 3 * time.Second})
	h.RunRequests(50)
	app.crashNext = "hang"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	d := h.TL.Summarize().Downtime
	if d < 3*time.Second {
		t.Fatalf("hang downtime %v < watchdog timeout", d)
	}
}

func TestSecondFailureRule(t *testing.T) {
	h, app := harness(t, Config{Mode: ModePhoenix, UnsafeRegions: true})
	h.RunRequests(50)
	app.crashNext = "segv"
	h.RunRequests(1)
	app.crashNext = "segv" // immediately again, inside the grace window
	if err := h.RunRequests(5); err != nil {
		t.Fatal(err)
	}
	if h.Stat.PhoenixRestarts != 1 || h.Stat.GraceFallbacks != 1 {
		t.Fatalf("stats %+v", h.Stat)
	}
}

func TestTimelineMarks(t *testing.T) {
	h, app := harness(t, Config{Mode: ModePhoenix})
	h.RunRequests(50)
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.TL.FailureAt(); !ok {
		t.Fatal("failure not marked")
	}
	if _, ok := h.TL.ResumedAt(); !ok {
		t.Fatal("resume not marked")
	}
	if h.TL.Summarize().Downtime <= 0 {
		t.Fatal("no downtime measured")
	}
}

func TestDisablePersistence(t *testing.T) {
	h, app := harness(t, Config{Mode: ModePhoenix, DisablePersistence: true, CheckpointInterval: time.Millisecond})
	h.RunRequests(50)
	if app.persistence {
		t.Fatal("persistence not disabled")
	}
	if h.Proc().Machine.Disk.Exists("toy.ckpt") {
		t.Fatal("checkpoint written despite DisablePersistence")
	}
}

func TestEventsRecorded(t *testing.T) {
	h, app := harness(t, Config{Mode: ModePhoenix})
	h.RunRequests(10)
	app.crashNext = "segv"
	h.RunRequests(5)
	kinds := map[EventKind]bool{}
	for _, e := range h.Stat.Events {
		kinds[e.Kind] = true
	}
	if !kinds[EvCrash] || !kinds[EvPhoenixRestart] {
		t.Fatalf("events = %+v", h.Stat.Events)
	}
}

func TestRunUntil(t *testing.T) {
	h, _ := harness(t, Config{Mode: ModeVanilla})
	deadline := h.M.Clock.Now() + 50*time.Millisecond
	if err := h.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	if h.M.Clock.Now() < deadline {
		t.Fatalf("clock %v short of deadline %v", h.M.Clock.Now(), deadline)
	}
	if h.Stat.Requests == 0 {
		t.Fatal("no requests ran")
	}
}

// TestKill crashes the process outside a request: the kill registers, and the
// PHOENIX restart keeps the preserved counter.
func TestKill(t *testing.T) {
	h, app := harness(t, Config{Mode: ModePhoenix})
	h.RunRequests(10)
	if err := h.Kill(); err != nil {
		t.Fatal(err)
	}
	if h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("stats %+v", h.Stat)
	}
	if app.value() != 10 {
		t.Fatalf("counter = %d", app.value())
	}
}

// ccApp extends toyApp with cross-check wiring whose snapshot dump can be
// forced to diverge.
type ccApp struct {
	*toyApp
	lie bool // make the preserved snapshot claim a wrong counter
}

func (a *ccApp) CrossCheck(rt *core.Runtime) (core.CrossCheckSpec, bool) {
	counter := a.counter
	truth := fmt.Sprint(rt.Proc().AS.ReadU64(counter))
	return core.CrossCheckSpec{
		SnapshotDump: func(snap *mem.AddressSpace) core.StateDump {
			v := fmt.Sprint(snap.ReadU64(counter))
			if a.lie {
				v = "corrupted"
			}
			return core.StateDump{"counter": v}
		},
		ReferenceRecover: func() (core.StateDump, time.Duration) {
			return core.StateDump{"counter": truth}, 100 * time.Millisecond
		},
	}, true
}

func (a *ccApp) RestoreReference(rt *core.Runtime, ref core.StateDump) error {
	if err := a.Main(rt); err != nil {
		return err
	}
	var v uint64
	fmt.Sscan(ref["counter"], &v)
	rt.Proc().AS.WriteU64(a.counter, v)
	return nil
}

func ccHarness(t *testing.T, lie bool) (*Harness, *ccApp) {
	t.Helper()
	m := kernel.NewMachine(1)
	app := &ccApp{toyApp: newToyApp(), lie: lie}
	h := NewHarness(m, Config{Mode: ModePhoenix, CrossCheck: true}, app, workload.NewFillSeq(8), nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return h, app
}

func TestCrossCheckPassKeepsSpeculation(t *testing.T) {
	h, app := ccHarness(t, false)
	h.RunRequests(50)
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	h.M.Clock.Advance(time.Second)
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	v := h.CrossCheckResult()
	if v == nil || !v.Match {
		t.Fatalf("verdict %+v", v)
	}
	if h.Stat.CrossFallbacks != 0 {
		t.Fatalf("stats %+v", h.Stat)
	}
}

func TestCrossCheckMismatchHotSwitch(t *testing.T) {
	h, app := ccHarness(t, true)
	h.RunRequests(50)
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	h.M.Clock.Advance(time.Second)
	// One step processes the pending switch.
	if err := h.RunRequests(5); err != nil {
		t.Fatal(err)
	}
	if h.Stat.CrossFallbacks != 1 {
		t.Fatalf("stats %+v", h.Stat)
	}
	// The hot-switch restored the validated counter value (50 pre-crash
	// minus the lost in-flight request, plus post-verdict requests).
	if app.value() < 50 {
		t.Fatalf("counter = %d after hot switch", app.value())
	}
}

// crashyBootApp fails its first post-fallback Main to exercise the repeated
// boot-crash path.
type crashyBootApp struct {
	*toyApp
	bootCrashes int
}

func (a *crashyBootApp) Main(rt *core.Runtime) error {
	if !rt.IsRecoveryMode() && a.boots > 0 && a.bootCrashes > 0 {
		a.bootCrashes--
		a.boots++
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "boot crash"})
	}
	return a.toyApp.Main(rt)
}

func TestBootCrashRetries(t *testing.T) {
	m := kernel.NewMachine(1)
	app := &crashyBootApp{toyApp: newToyApp(), bootCrashes: 2}
	h := NewHarness(m, Config{Mode: ModeVanilla}, app, workload.NewFillSeq(8), nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	h.RunRequests(10)
	app.crashNext = "segv"
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if h.Stat.BootFailures != 2 {
		t.Fatalf("boot failures = %d", h.Stat.BootFailures)
	}
	if app.value() != 9 {
		t.Fatalf("counter = %d", app.value())
	}
}

func TestBootCrashGivesUp(t *testing.T) {
	m := kernel.NewMachine(1)
	app := &crashyBootApp{toyApp: newToyApp(), bootCrashes: 99}
	h := NewHarness(m, Config{Mode: ModeVanilla}, app, workload.NewFillSeq(8), nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	app.crashNext = "segv"
	err := h.RunRequests(5)
	if err == nil {
		t.Fatal("endless boot crashes not surfaced")
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeVanilla: "Vanilla", ModeBuiltin: "Builtin", ModeCRIU: "CRIU", ModePhoenix: "PHOENIX",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %s", m, m.String())
		}
	}
	if h, _ := harness(t, Config{Mode: ModeVanilla}); h.Runtime() == nil {
		t.Fatal("Runtime() nil after boot")
	}
}
