package core

import (
	"fmt"
	"testing"
	"time"

	"phoenix/internal/costmodel"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/simds"
)

func newProc(t *testing.T) (*kernel.Machine, *kernel.Process) {
	t.Helper()
	m := kernel.NewMachine(1)
	b := linker.NewBuilder("app", 0x0010_0000)
	b.Var("flag", 8, linker.SecPhxBSS)
	p, err := m.Spawn(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestInitFreshStart(t *testing.T) {
	_, p := newProc(t)
	rt := Init(p, nil)
	if rt.IsRecoveryMode() || rt.WasPhoenixStart() {
		t.Fatal("fresh start reports recovery mode")
	}
	if rt.RecoveryInfo() != mem.NullPtr || rt.FallbackReason() != "" {
		t.Fatal("fresh start carries handoff data")
	}
}

func TestPhoenixRestartCycle(t *testing.T) {
	_, p := newProc(t)
	rt := Init(p, nil)
	h, err := rt.OpenHeap(heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Build preservable state and an info block pointing at it.
	state := h.Alloc(64)
	p.AS.WriteU64(state, 12345)
	info := h.Alloc(16)
	p.AS.WritePtr(info, state)

	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		t.Fatal(err)
	}

	// --- new incarnation ---
	rt2 := Init(np, nil)
	if !rt2.IsRecoveryMode() || !rt2.WasPhoenixStart() {
		t.Fatal("successor not in recovery mode")
	}
	if rt2.RecoveryInfo() != info {
		t.Fatal("recovery info pointer lost")
	}
	h2, err := rt2.OpenHeap(heap.Options{})
	if err != nil {
		t.Fatalf("OpenHeap in recovery mode: %v", err)
	}
	gotState := np.AS.ReadPtr(rt2.RecoveryInfo())
	if np.AS.ReadU64(gotState) != 12345 {
		t.Fatal("preserved state content lost")
	}
	_ = h2
	rt2.FinishRecovery(nil)
	if rt2.IsRecoveryMode() {
		t.Fatal("recovery mode persists after FinishRecovery")
	}
}

func TestRestartWithHeapRequiresHeap(t *testing.T) {
	_, p := newProc(t)
	rt := Init(p, nil)
	if _, err := rt.Restart(RestartPlan{WithHeap: true}); err == nil {
		t.Fatal("Restart with_heap without a heap succeeded")
	}
}

func TestFallbackStart(t *testing.T) {
	_, p := newProc(t)
	rt := Init(p, nil)
	np, err := rt.Fallback("unsafe region kv")
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	if rt2.IsRecoveryMode() {
		t.Fatal("fallback start reports recovery mode")
	}
	if rt2.FallbackReason() != "unsafe region kv" {
		t.Fatalf("FallbackReason = %q", rt2.FallbackReason())
	}
	if _, err := rt2.OpenHeap(heap.Options{}); err != nil {
		t.Fatalf("fresh heap after fallback: %v", err)
	}
}

func TestMarkPreserveAndCleanup(t *testing.T) {
	_, p := newProc(t)
	rt := Init(p, nil)
	h, _ := rt.OpenHeap(heap.Options{})
	keep := h.Alloc(64)
	for i := 0; i < 20; i++ {
		h.Alloc(64) // garbage
	}
	info := h.Alloc(16)
	p.AS.WritePtr(info, keep)

	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	if _, err := rt2.OpenHeap(heap.Options{}); err != nil {
		t.Fatal(err)
	}
	before := np.Machine.Clock.Now()
	rt2.FinishRecovery(func() {
		rt2.MarkPreserve(rt2.RecoveryInfo())
		rt2.MarkPreserve(np.AS.ReadPtr(rt2.RecoveryInfo()))
	})
	c := rt2.Cleanup()
	if c == nil || c.Reclaimed {
		t.Fatalf("FinishRecovery left no pending cleanup: %+v", c)
	}
	if got := np.Machine.Clock.Now() - before; got != c.Fork || c.Due <= np.Machine.Clock.Now() {
		t.Fatalf("FinishRecovery charged %v, fork %v, due %v at %v: want only the fork, with the sweep still running",
			got, c.Fork, c.Due, np.Machine.Clock.Now())
	}
	if rt2.AwaitCleanup() != c || c.FreedChunks != 20 || c.FreedBytes <= 0 {
		t.Fatalf("cleanup freed %d chunks (%d bytes), want 20", c.FreedChunks, c.FreedBytes)
	}
	if c.ReclaimedAt <= c.Due {
		t.Fatalf("frees landed at %v, not after the background pass ending at %v", c.ReclaimedAt, c.Due)
	}
}

func TestMarkPreserveOutsideHeapAborts(t *testing.T) {
	_, p := newProc(t)
	rt := Init(p, nil)
	rt.OpenHeap(heap.Options{})
	defer func() {
		c, ok := recover().(*kernel.Crash)
		if !ok || c.Sig != kernel.SIGABRT {
			t.Fatal("MarkPreserve outside heap did not abort")
		}
	}()
	rt.MarkPreserve(0x42)
}

func TestCreateAllocatorRoundTrip(t *testing.T) {
	_, p := newProc(t)
	rt := Init(p, nil)
	rt.OpenHeap(heap.Options{})
	alloc1, err := rt.CreateAllocator(heap.Options{Name: "cache"})
	if err != nil {
		t.Fatal(err)
	}
	obj := alloc1.Alloc(128)
	p.AS.WriteU64(obj, 777)
	info := rt.MainHeap().Alloc(16)
	p.AS.WritePtr(info, obj)

	np, err := rt.Restart(RestartPlan{
		InfoAddr:   info,
		WithHeap:   true,
		Allocators: []*heap.Heap{alloc1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	if _, err := rt2.OpenHeap(heap.Options{}); err != nil {
		t.Fatal(err)
	}
	alloc2, err := rt2.CreateAllocator(heap.Options{Name: "cache"})
	if err != nil {
		t.Fatalf("reattach allocator: %v", err)
	}
	if np.AS.ReadU64(np.AS.ReadPtr(rt2.RecoveryInfo())) != 777 {
		t.Fatal("allocator-region object lost")
	}
	if alloc2.Stats().LiveChunks != 1 {
		t.Fatalf("allocator LiveChunks = %d", alloc2.Stats().LiveChunks)
	}
}

func TestSecondFailureGrace(t *testing.T) {
	m, p := newProc(t)
	rt := Init(p, nil)
	h, _ := rt.OpenHeap(heap.Options{})
	info := h.Alloc(16)
	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	if !rt2.WithinGrace() {
		t.Fatal("immediately after restart should be within grace window")
	}
	m.Clock.Advance(SecondFailureGrace)
	if rt2.WithinGrace() {
		t.Fatal("grace window did not expire")
	}
	// Fresh starts are never in the grace window.
	_, p3 := newProc(t)
	if Init(p3, nil).WithinGrace() {
		t.Fatal("fresh start in grace window")
	}
}

func TestSignalHandlerRegistered(t *testing.T) {
	_, p := newProc(t)
	var seen *kernel.CrashInfo
	Init(p, func(rt *Runtime, ci *kernel.CrashInfo) { seen = ci })
	ci := p.Run(func() { p.AS.ReadU64(0xdead0000) })
	if ci == nil {
		t.Fatal("no crash caught")
	}
	if !p.Deliver(ci) || seen == nil || seen.Sig != kernel.SIGSEGV {
		t.Fatal("restart handler not invoked for SIGSEGV")
	}
}

// --- unsafe regions ---

func TestUnsafeRegions(t *testing.T) {
	_, p := newProc(t)
	rt := Init(p, nil)
	if !rt.AllSafe() || !rt.IsSafe("kv") {
		t.Fatal("fresh runtime not safe")
	}
	rt.UnsafeBegin("kv")
	if rt.IsSafe("kv") || rt.AllSafe() {
		t.Fatal("inside region reported safe")
	}
	if rt.IsSafe("other") != true {
		t.Fatal("independent component affected")
	}
	rt.UnsafeBegin("kv") // nesting
	rt.UnsafeEnd("kv")
	if rt.IsSafe("kv") {
		t.Fatal("nested region closed early")
	}
	rt.UnsafeEnd("kv")
	if !rt.AllSafe() {
		t.Fatal("region not closed")
	}
	if got := rt.Unsafe().Entries("kv"); got != 2 {
		t.Fatalf("Entries = %d", got)
	}
}

func TestUnsafeEndClamps(t *testing.T) {
	u := NewUnsafeSet()
	u.End("x")
	if !u.Safe("x") {
		t.Fatal("unbalanced End corrupted counter")
	}
	u.Begin("x")
	u.End("x")
	u.End("x")
	u.Begin("x")
	if u.Safe("x") {
		t.Fatal("clamped counter lost a Begin")
	}
}

func TestUnsafeActive(t *testing.T) {
	u := NewUnsafeSet()
	u.Begin("b")
	u.Begin("a")
	got := u.Active()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Active = %v", got)
	}
}

// --- stages ---

func stageEnv(t *testing.T) (*kernel.Process, *Runtime, mem.VAddr) {
	t.Helper()
	_, p := newProc(t)
	rt := Init(p, nil)
	h, err := rt.OpenHeap(heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tracker := h.Alloc(StageTrackerSize)
	return p, rt, tracker
}

func TestStagesNormalRun(t *testing.T) {
	_, rt, tracker := stageEnv(t)
	st := rt.NewStages(tracker)
	var trace []string
	for it := uint64(0); it < 2; it++ {
		st.BeginIteration(it)
		st.Run("a", func() { trace = append(trace, fmt.Sprintf("a%d", it)) },
			func() { trace = append(trace, fmt.Sprintf("pre-a%d", it)) }, nil)
		st.Run("b", func() { trace = append(trace, fmt.Sprintf("b%d", it)) }, nil, nil)
		st.EndIteration()
	}
	want := "pre-a0 a0 b0 pre-a1 a1 b1"
	if got := fmt.Sprint(trace); got != fmt.Sprint([]string{"pre-a0", "a0", "b0", "pre-a1", "a1", "b1"}) {
		t.Fatalf("trace = %v, want %s", trace, want)
	}
	if it, s := st.Position(); it != 1 || s != 2 {
		t.Fatalf("Position = %d,%d", it, s)
	}
}

func TestStagesRecoveryReplay(t *testing.T) {
	p, rt, tracker := stageEnv(t)
	st := rt.NewStages(tracker)
	// Complete iteration 3 stage "a", crash during "b".
	st.BeginIteration(3)
	st.Run("a", func() {}, nil, nil)
	// (crash here)

	info := rt.MainHeap().Alloc(16)
	p.AS.WritePtr(info, tracker)
	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	if _, err := rt2.OpenHeap(heap.Options{}); err != nil {
		t.Fatal(err)
	}
	tracker2 := np.AS.ReadPtr(rt2.RecoveryInfo())
	st2 := rt2.NewStages(tracker2)
	if !st2.Replaying() {
		t.Fatal("recovered tracker not replaying")
	}
	iter, stage := st2.Position()
	if iter != 3 || stage != 1 {
		t.Fatalf("preserved position = %d,%d, want 3,1", iter, stage)
	}
	var trace []string
	st2.BeginIteration(3)
	// Completed stage "a" is skipped outright (its effects are preserved);
	// stage "b" was interrupted before its preserve hook ran (flag clear),
	// so no rollback happens — it simply re-runs.
	st2.Run("a", func() { trace = append(trace, "a") }, nil,
		func() { trace = append(trace, "restore-a") })
	st2.Run("b", func() { trace = append(trace, "b") },
		func() { trace = append(trace, "pre-b") },
		func() { trace = append(trace, "restore-b") })
	st2.EndIteration()
	got := fmt.Sprint(trace)
	want := fmt.Sprint([]string{"pre-b", "b"})
	if got != want {
		t.Fatalf("replay trace = %v", trace)
	}
	if st2.Replaying() {
		t.Fatal("still replaying after passing preserved point")
	}
}

func TestStagesMidStageRollback(t *testing.T) {
	p, rt, tracker := stageEnv(t)
	st := rt.NewStages(tracker)
	st.BeginIteration(7)
	st.Run("a", func() {}, nil, nil)
	// Stage "b" runs its preserve hook (pre-image saved, flag set) and then
	// crashes mid-body.
	func() {
		defer func() { recover() }()
		st.Run("b", func() {
			panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "mid-stage crash"})
		}, func() { /* pre-image saved */ }, nil)
	}()

	info := rt.MainHeap().Alloc(16)
	p.AS.WritePtr(info, tracker)
	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	if _, err := rt2.OpenHeap(heap.Options{}); err != nil {
		t.Fatal(err)
	}
	st2 := rt2.NewStages(np.AS.ReadPtr(rt2.RecoveryInfo()))
	var trace []string
	st2.BeginIteration(7)
	st2.Run("a", func() { trace = append(trace, "a") }, nil,
		func() { trace = append(trace, "restore-a") })
	// The interrupted stage's preserve flag was set: rollback runs first.
	st2.Run("b", func() { trace = append(trace, "b") },
		func() { trace = append(trace, "pre-b") },
		func() { trace = append(trace, "restore-b") })
	st2.EndIteration()
	got := fmt.Sprint(trace)
	want := fmt.Sprint([]string{"restore-b", "pre-b", "b"})
	if got != want {
		t.Fatalf("mid-stage replay trace = %v", trace)
	}
}

func TestStagesMisuseAborts(t *testing.T) {
	_, rt, tracker := stageEnv(t)
	st := rt.NewStages(tracker)
	expectAbort := func(name string, fn func()) {
		defer func() {
			if _, ok := recover().(*kernel.Crash); !ok {
				t.Fatalf("%s did not abort", name)
			}
		}()
		fn()
	}
	expectAbort("Run outside iteration", func() { st.Run("x", func() {}, nil, nil) })
	expectAbort("EndIteration outside", func() { st.EndIteration() })
	st.BeginIteration(0)
	expectAbort("nested BeginIteration", func() { st.BeginIteration(1) })
}

// --- redo log ---

func redoCtx(t *testing.T) (*kernel.Process, *Runtime, *simds.Ctx) {
	t.Helper()
	m, p := newProc(t)
	rt := Init(p, nil)
	h, err := rt.OpenHeap(heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, rt, simds.NewCtx(h, m.Clock, costmodel.Default())
}

func TestRedoLogAppendReplay(t *testing.T) {
	_, _, c := redoCtx(t)
	l := NewRedoLog(c)
	for i := 0; i < 5; i++ {
		l.Append([]byte(fmt.Sprintf("op-%d", i)))
	}
	if l.Len() != 5 || l.Seq() != 5 {
		t.Fatalf("Len=%d Seq=%d", l.Len(), l.Seq())
	}
	var got []string
	l.Replay(func(rec []byte) bool { got = append(got, string(rec)); return true })
	if len(got) != 5 || got[0] != "op-0" || got[4] != "op-4" {
		t.Fatalf("Replay = %v", got)
	}
	l.Truncate()
	if l.Len() != 0 {
		t.Fatal("Truncate left records")
	}
	if l.Seq() != 5 {
		t.Fatal("Truncate reset sequence number")
	}
	l.Append([]byte("after"))
	got = nil
	l.Replay(func(rec []byte) bool { got = append(got, string(rec)); return true })
	if len(got) != 1 || got[0] != "after" {
		t.Fatalf("post-truncate Replay = %v", got)
	}
}

func TestRedoLogSurvivesRestart(t *testing.T) {
	p, rt, c := redoCtx(t)
	l := NewRedoLog(c)
	l.Append([]byte("set k1 v1"))
	l.Append([]byte("set k2 v2"))
	info := rt.MainHeap().Alloc(16)
	p.AS.WritePtr(info, l.Addr())
	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	h2, err := rt2.OpenHeap(heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := simds.NewCtx(h2, np.Machine.Clock, costmodel.Default())
	l2 := OpenRedoLog(c2, np.AS.ReadPtr(rt2.RecoveryInfo()))
	var got []string
	l2.Replay(func(rec []byte) bool { got = append(got, string(rec)); return true })
	if len(got) != 2 || got[0] != "set k1 v1" || got[1] != "set k2 v2" {
		t.Fatalf("preserved redo log = %v", got)
	}
}

func TestRedoLogMarkSweep(t *testing.T) {
	_, _, c := redoCtx(t)
	l := NewRedoLog(c)
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	c.Heap.Alloc(64) // garbage
	l.Mark()
	freed, _, _ := c.Heap.Sweep()
	if freed != 1 {
		t.Fatalf("sweep freed %d, want 1", freed)
	}
	var got []string
	l.Replay(func(rec []byte) bool { got = append(got, string(rec)); return true })
	if len(got) != 2 {
		t.Fatal("redo log damaged by sweep")
	}
}

// --- cross-check ---

func TestCompareDumps(t *testing.T) {
	si := StateDump{"a": "1", "b": "2", "c": "3"}
	sr := StateDump{"a": "1", "b": "2", "c": "3"}
	if ok, d := CompareDumps(si, sr, nil); !ok || d != nil {
		t.Fatalf("equal dumps diverged: %v", d)
	}
	sr["b"] = "X"
	if ok, d := CompareDumps(si, sr, nil); ok || len(d) != 1 || d[0] != "b" {
		t.Fatalf("diverged value not detected: %v", d)
	}
	// In-flight tolerance.
	if ok, _ := CompareDumps(si, sr, map[string]bool{"b": true}); !ok {
		t.Fatal("in-flight key not tolerated")
	}
	// Missing / extra keys.
	delete(sr, "c")
	sr["z"] = "9"
	_, d := CompareDumps(si, sr, map[string]bool{"b": true})
	if len(d) != 2 {
		t.Fatalf("missing+extra keys = %v", d)
	}
}

func TestCrossCheckFlow(t *testing.T) {
	m, p := newProc(t)
	rt := Init(p, nil)
	h, _ := rt.OpenHeap(heap.Options{})
	state := h.Alloc(64)
	p.AS.WriteU64(state, 7)
	info := h.Alloc(16)
	p.AS.WritePtr(info, state)
	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	rt2.OpenHeap(heap.Options{})

	var verdicts []Verdict
	before := m.Clock.Now()
	cc := rt2.StartCrossCheck(CrossCheckSpec{
		SnapshotDump: func(snap *mem.AddressSpace) StateDump {
			// Snapshot must see the preserved value even if the live state
			// advances afterwards.
			return StateDump{"v": fmt.Sprint(snap.ReadU64(state))}
		},
		ReferenceRecover: func() (StateDump, time.Duration) {
			return StateDump{"v": "7"}, 2 * time.Second
		},
		OnVerdict: func(v Verdict) { verdicts = append(verdicts, v) },
	})
	if m.Clock.Now() == before {
		t.Fatal("fork charged no time")
	}
	// Main process keeps serving speculatively and mutates live state.
	np.AS.WriteU64(state, 999)
	if cc.Verdict() != nil {
		t.Fatal("verdict before background completion")
	}
	m.Clock.Advance(3 * time.Second)
	if cc.Verdict() == nil || len(verdicts) != 1 {
		t.Fatal("verdict not delivered")
	}
	if !verdicts[0].Match {
		t.Fatalf("verdict diverged: %v", verdicts[0].Diverged)
	}
	if cc.SpeculationWindow() < 2*time.Second {
		t.Fatalf("speculation window %v", cc.SpeculationWindow())
	}
}

func TestCrossCheckMismatch(t *testing.T) {
	m, p := newProc(t)
	rt := Init(p, nil)
	h, _ := rt.OpenHeap(heap.Options{})
	info := h.Alloc(16)
	np, err := rt.Restart(RestartPlan{InfoAddr: info, WithHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := Init(np, nil)
	rt2.OpenHeap(heap.Options{})
	var got *Verdict
	rt2.StartCrossCheck(CrossCheckSpec{
		SnapshotDump:     func(*mem.AddressSpace) StateDump { return StateDump{"k": "corrupted"} },
		ReferenceRecover: func() (StateDump, time.Duration) { return StateDump{"k": "good"}, time.Second },
		OnVerdict:        func(v Verdict) { got = &v },
	})
	m.Clock.Advance(2 * time.Second)
	if got == nil || got.Match {
		t.Fatal("mismatch not detected")
	}
	if len(got.Diverged) != 1 || got.Diverged[0] != "k" {
		t.Fatalf("Diverged = %v", got.Diverged)
	}
}
