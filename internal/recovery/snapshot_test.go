package recovery

import (
	"testing"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/kernel"
	"phoenix/internal/mem"
	"phoenix/internal/workload"
)

// pagesApp is toyApp with snapshot serving over a few extra pages: request
// Seq writes one word into page Seq of the region and charges nothing of
// its own, so a request's simulated time is exactly the harness's charges.
// An OpDelete request crashes after its write.
type pagesApp struct{ *toyApp }

const (
	pagesRegion = mem.VAddr(0x3000_0000)
	pagesCount  = 4
)

func (a *pagesApp) Main(rt *core.Runtime) error {
	if err := a.toyApp.Main(rt); err != nil {
		return err
	}
	_, err := rt.Proc().AS.Map(pagesRegion, pagesCount, mem.KindCustom, "pages")
	return err
}

func (a *pagesApp) Handle(req *workload.Request) (bool, bool) {
	a.rt.Proc().AS.WriteU64(pagesRegion+mem.VAddr(req.Seq)*mem.PageSize, req.Seq+1)
	if req.Op == workload.OpDelete {
		panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "pages: crash after write"})
	}
	return true, true
}

func (a *pagesApp) OpenSnapshotReader(view *mem.AddressSpace) func(*workload.Request) (bool, bool) {
	return func(req *workload.Request) (bool, bool) {
		return true, view.ReadU64(pagesRegion+mem.VAddr(req.Seq)*mem.PageSize) != 0
	}
}

func pagesHarness(t *testing.T, cfg Config) *Harness {
	t.Helper()
	h := NewHarness(kernel.NewMachine(1), cfg, &pagesApp{newToyApp()}, workload.NewFillSeq(8), nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return h
}

// elapsed returns how far fn advances the harness's clock.
func elapsed(h *Harness, fn func()) time.Duration {
	before := h.M.Clock.Now()
	fn()
	return h.M.Clock.Now() - before
}

func write(t *testing.T, h *Harness, page uint64) time.Duration {
	t.Helper()
	return elapsed(h, func() {
		if ok, _, err := h.ServeRequest(&workload.Request{Op: workload.OpUpdate, Seq: page}); err != nil || !ok {
			t.Fatalf("write page %d: ok=%v err=%v", page, ok, err)
		}
	})
}

func commit(t *testing.T, h *Harness) (changed int, d time.Duration) {
	t.Helper()
	d = elapsed(h, func() {
		var err error
		if changed, err = h.SnapshotCommit(); err != nil {
			t.Fatal(err)
		}
	})
	return changed, d
}

// TestSnapshotCommitChargesFaultsAtFirstWrite pins where an MVCC version's
// page copies are charged. A commit pays its fixed cost and one 5 ns
// write-protect per changed page; the first write after it to a page the
// version shares pays SnapshotCopyPerPage on that request's clock, once; a
// second write, or a write to a page the version does not share, pays
// nothing; and a request that crashes after such a write pays the fault
// before its recovery starts.
func TestSnapshotCommitChargesFaultsAtFirstWrite(t *testing.T) {
	h := pagesHarness(t, Config{Mode: ModeVanilla})
	model := h.M.Model
	wantCommit := func(changed int) time.Duration {
		return model.SnapshotCommitFixed + time.Duration(changed)*5*time.Nanosecond
	}
	for p := uint64(0); p < 2; p++ { // pages 0 and 1 resident, 2 and 3 not
		if d := write(t, h, p); d != 0 {
			t.Fatalf("write to page %d before any commit charged %v", p, d)
		}
	}
	changed, d := commit(t, h)
	if d != wantCommit(changed) {
		t.Fatalf("first commit of %d changed pages charged %v, want %v", changed, d, wantCommit(changed))
	}

	if d := write(t, h, 0); d != model.SnapshotCopyPerPage {
		t.Fatalf("first write to a shared page charged %v, want %v", d, model.SnapshotCopyPerPage)
	}
	if d := write(t, h, 0); d != 0 {
		t.Fatalf("second write to the same page charged %v, want 0", d)
	}
	if d := write(t, h, 2); d != 0 {
		t.Fatalf("write to a page the version does not share charged %v, want 0", d)
	}
	changed, d = commit(t, h)
	if changed != 2 || d != wantCommit(2) {
		t.Fatalf("second commit: %d changed pages charged %v, want 2 charged %v", changed, d, wantCommit(2))
	}

	// Page 1 is still shared: a request that writes it and crashes pays the
	// fault before the crash is handled.
	before := h.M.Clock.Now()
	if ok, _, err := h.ServeRequest(&workload.Request{Op: workload.OpDelete, Seq: 1}); err != nil || ok {
		t.Fatalf("crashing write: ok=%v err=%v", ok, err)
	}
	var crashAt time.Duration = -1
	for _, e := range h.Stat.Events {
		if e.Kind == EvCrash {
			crashAt = e.At
		}
	}
	if crashAt != before+model.SnapshotCopyPerPage {
		t.Fatalf("crash handled at %v, want %v: the fault is paid before recovery", crashAt, before+model.SnapshotCopyPerPage)
	}
}

// TestSnapshotFaultsIgnoreCRIUShares: on a CRIU harness that also holds a
// snapshot store, a page the CRIU image shares but no snapshot version does
// costs nothing to write, as before snapshot faults were charged, while a
// page both share pays one fault.
func TestSnapshotFaultsIgnoreCRIUShares(t *testing.T) {
	h := pagesHarness(t, Config{Mode: ModeCRIU, CheckpointInterval: 10 * time.Millisecond})
	write(t, h, 0)
	write(t, h, 1)
	commit(t, h)
	write(t, h, 0) // page 0's snapshot fault: it is private again
	h.M.Clock.Advance(h.Cfg.CheckpointInterval)
	h.maybeSnapshot() // the CRIU dump shares pages 0 and 1
	if h.criuImage == nil {
		t.Fatal("no CRIU image taken")
	}
	if d := write(t, h, 0); d != 0 {
		t.Fatalf("write to a page only the CRIU image shares charged %v, want 0", d)
	}
	if d := write(t, h, 1); d != h.M.Model.SnapshotCopyPerPage {
		t.Fatalf("write to a page the image and the version share charged %v, want %v", d, h.M.Model.SnapshotCopyPerPage)
	}
}
