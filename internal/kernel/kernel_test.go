package kernel

import (
	"testing"

	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

func testImage() *linker.Image {
	b := linker.NewBuilder("app", 0x0010_0000)
	v := b.Var("counter", 8, linker.SecData)
	b.VarInit(v, []byte{42})
	b.Var("pools", 64, linker.SecPhxData)
	return b.Build()
}

func TestSpawnChargesExec(t *testing.T) {
	m := NewMachine(1)
	before := m.Clock.Now()
	p, err := m.Spawn(testImage())
	if err != nil {
		t.Fatal(err)
	}
	if m.Clock.Now()-before != m.Model.ExecBase {
		t.Fatalf("spawn charged %v, want %v", m.Clock.Now()-before, m.Model.ExecBase)
	}
	if p.AS.ASLRBase == 0 {
		t.Fatal("no ASLR slide chosen")
	}
	if v := p.AS.ReadU8(p.Image.Vars["counter"].Addr); v != 42 {
		t.Fatalf("image not loaded: counter = %d", v)
	}
}

func TestPIDsDistinct(t *testing.T) {
	m := NewMachine(1)
	p1, _ := m.Spawn(nil)
	p2, _ := m.Spawn(nil)
	if p1.PID == p2.PID {
		t.Fatal("duplicate PIDs")
	}
}

func TestPreserveExecMovesRanges(t *testing.T) {
	m := NewMachine(1)
	p, err := m.Spawn(testImage())
	if err != nil {
		t.Fatal(err)
	}
	// A custom preserved region holding the recovery info.
	const region = mem.VAddr(0x2000_0000)
	if _, err := p.AS.Map(region, 4, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	p.AS.WriteU64(region, 7777)
	infoAddr := region + 64
	p.AS.WriteU64(infoAddr, 1234)

	np, err := p.PreserveExec(ExecSpec{
		InfoAddr: infoAddr,
		Ranges:   []linker.Range{{Start: region, Len: 4 * mem.PageSize}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Dead() {
		t.Fatal("old process not dead after preserve_exec")
	}
	if np.AS.ReadU64(region) != 7777 || np.AS.ReadU64(infoAddr) != 1234 {
		t.Fatal("preserved content lost")
	}
	h := np.Handoff()
	if h == nil || h.InfoAddr != infoAddr || h.MovedPages != 4 {
		t.Fatalf("handoff wrong: %+v", h)
	}
	// ASLR base reused (§3.3).
	if np.AS.ASLRBase != p.AS.ASLRBase {
		t.Fatal("ASLR base re-randomized across PHOENIX restart")
	}
	// Image reloaded into the gaps.
	if v := np.AS.ReadU8(np.Image.Vars["counter"].Addr); v != 42 {
		t.Fatal("image not reloaded in successor")
	}
}

func TestPreserveExecWithSection(t *testing.T) {
	m := NewMachine(1)
	p, _ := m.Spawn(testImage())
	pools := p.Image.Vars["pools"]
	p.AS.WriteU64(pools.Addr, 99)
	np, err := p.PreserveExec(ExecSpec{WithSection: true})
	if err != nil {
		t.Fatal(err)
	}
	if np.AS.ReadU64(pools.Addr) != 99 {
		t.Fatal(".phx.data static not preserved with WithSection")
	}
}

func TestPreserveExecPartialPages(t *testing.T) {
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	const region = mem.VAddr(0x2000_0000)
	if _, err := p.AS.Map(region, 4, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	// Preserve an unaligned byte range spanning partial head/tail pages.
	start := region + 100
	p.AS.WriteU64(start, 31337)
	tail := region + 3*mem.PageSize + 8
	p.AS.WriteU64(tail, 73331)
	np, err := p.PreserveExec(ExecSpec{
		Ranges: []linker.Range{{Start: start, Len: int(tail - start + 8)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if np.AS.ReadU64(start) != 31337 || np.AS.ReadU64(tail) != 73331 {
		t.Fatal("partial-page preserved content lost")
	}
	h := np.Handoff()
	if h.CopiedPages != 2 || h.MovedPages != 2 {
		t.Fatalf("partial split wrong: moved=%d copied=%d, want 2/2", h.MovedPages, h.CopiedPages)
	}
}

func TestPreserveExecRejectsStrayInfo(t *testing.T) {
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	if _, err := p.PreserveExec(ExecSpec{InfoAddr: 0x9999_0000}); err == nil {
		t.Fatal("info outside preserved ranges accepted")
	}
}

func TestPreserveExecOnDead(t *testing.T) {
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	p.Kill()
	if _, err := p.PreserveExec(ExecSpec{}); err == nil {
		t.Fatal("preserve_exec on dead process succeeded")
	}
}

func TestExecFallback(t *testing.T) {
	m := NewMachine(1)
	p, _ := m.Spawn(testImage())
	np, err := p.Exec("unsafe region")
	if err != nil {
		t.Fatal(err)
	}
	if np.Handoff() == nil || np.Handoff().FallbackReason != "unsafe region" {
		t.Fatal("fallback reason not carried")
	}
	if np.Handoff().MovedPages != 0 {
		t.Fatal("plain exec moved pages")
	}
	// Plain restart re-randomizes ASLR.
	if np.AS.ASLRBase == p.AS.ASLRBase {
		t.Fatal("plain exec reused ASLR base (expected re-randomization)")
	}
}

func TestRunCatchesFaults(t *testing.T) {
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	ci := p.Run(func() { p.AS.ReadU64(0xdead000) })
	if ci == nil || ci.Sig != SIGSEGV || ci.Addr != 0xdead000 {
		t.Fatalf("fault not converted: %+v", ci)
	}
	ci = p.Run(func() { panic(&Crash{Sig: SIGABRT, Reason: "assert"}) })
	if ci == nil || ci.Sig != SIGABRT {
		t.Fatalf("crash not converted: %+v", ci)
	}
	if ci := p.Run(func() {}); ci != nil {
		t.Fatalf("clean run returned crash %+v", ci)
	}
}

func TestRunPropagatesForeignPanics(t *testing.T) {
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	p.Run(func() { panic("simulator bug") })
}

func TestSignalDelivery(t *testing.T) {
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	var got *CrashInfo
	p.OnSignal(SIGSEGV, func(ci *CrashInfo) { got = ci })
	handled := p.Deliver(&CrashInfo{Sig: SIGSEGV, Addr: 0x42})
	if !handled || got == nil || got.Addr != 0x42 {
		t.Fatal("handler not invoked")
	}
	if p.Deliver(&CrashInfo{Sig: SIGABRT}) {
		t.Fatal("unregistered signal reported handled")
	}
	if p.Deliver(&CrashInfo{Sig: SIGKILL}) {
		t.Fatal("SIGKILL ran a handler")
	}
	if !p.Dead() {
		t.Fatal("SIGKILL did not kill")
	}
}

func TestPreserveExecCostScalesWithPages(t *testing.T) {
	m := NewMachine(1)
	p, _ := m.Spawn(nil)
	const region = mem.VAddr(0x2000_0000)
	const pages = 1024
	if _, err := p.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	before := m.Clock.Now()
	if _, err := p.PreserveExec(ExecSpec{
		Ranges: []linker.Range{{Start: region, Len: pages * mem.PageSize}},
	}); err != nil {
		t.Fatal(err)
	}
	got := m.Clock.Now() - before
	// Untouched pages are non-resident: the walk pays the per-page dirty
	// scan and the PTE moves, but hashes nothing (zero-page sums are O(1)).
	want := m.Model.PreserveExecDelta(pages, 0, 0, pages)
	if got != want {
		t.Fatalf("preserve_exec charged %v, want %v", got, want)
	}

	// Resident pages are hashed at stage on a first preserve (no cache yet),
	// so the restart window gains one hash per written page; the verify
	// walk's second hash runs in the background.
	m2 := NewMachine(1)
	p2, _ := m2.Spawn(nil)
	if _, err := p2.AS.Map(region, pages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	const written = 32
	for i := 0; i < written; i++ {
		p2.AS.WriteU64(region+mem.VAddr(i)*mem.PageSize, uint64(i)+1)
	}
	before = m2.Clock.Now()
	if _, err := p2.PreserveExec(ExecSpec{
		Ranges: []linker.Range{{Start: region, Len: pages * mem.PageSize}},
	}); err != nil {
		t.Fatal(err)
	}
	got = m2.Clock.Now() - before
	want = m2.Model.PreserveExecDelta(pages, 0, written, pages)
	if got != want {
		t.Fatalf("preserve_exec with %d resident pages charged %v, want %v", written, got, want)
	}
}
