package core

import (
	"bytes"
	"testing"

	"phoenix/internal/costmodel"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/simds"
)

func vaultEnv(t *testing.T) (*kernel.Process, *Runtime, *simds.Ctx) {
	t.Helper()
	_, p := newProc(t)
	rt := Init(p, nil)
	h, err := rt.OpenHeap(heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, rt, simds.NewCtx(h, p.Machine.Clock, costmodel.Default())
}

func TestVaultSaveRestore(t *testing.T) {
	p, _, c := vaultEnv(t)
	v := NewStageVault(c)
	buf := c.Heap.Alloc(64)
	p.AS.WriteAt(buf, []byte("original-contents"))
	v.Save("pred", buf, 17)

	p.AS.WriteAt(buf, []byte("clobbered-by-code"))
	v.Restore("pred", buf)
	if !bytes.Equal(p.AS.ReadBytes(buf, 17), []byte("original-contents")) {
		t.Fatal("restore did not recover the saved copy")
	}
	if v.Len("pred") != 17 || v.Len("nope") != -1 {
		t.Fatalf("Len = %d / %d", v.Len("pred"), v.Len("nope"))
	}
}

func TestVaultOverwriteFreesOldCopy(t *testing.T) {
	p, _, c := vaultEnv(t)
	v := NewStageVault(c)
	buf := c.Heap.Alloc(64)
	before := c.Heap.Stats().LiveChunks
	for i := 0; i < 50; i++ {
		p.AS.WriteU64(buf, uint64(i))
		v.Save("slot", buf, 8)
	}
	// One slot blob + one dict entry + key blob beyond the baseline.
	growth := c.Heap.Stats().LiveChunks - before
	if growth > 4 {
		t.Fatalf("repeated Save leaked %d chunks", growth)
	}
	v.Drop("slot")
	if v.Len("slot") != -1 {
		t.Fatal("Drop left the slot")
	}
}

func TestVaultRestoreUnsavedAborts(t *testing.T) {
	_, _, c := vaultEnv(t)
	v := NewStageVault(c)
	defer func() {
		if _, ok := recover().(*kernel.Crash); !ok {
			t.Fatal("restore of unsaved slot did not abort")
		}
	}()
	v.Restore("ghost", 0x1000)
}

// TestVaultSurvivesRestart is the Figure 8 flow: a stage saves its inputs,
// the process crashes mid-stage, and the restarted process restores them
// from the preserved vault.
func TestVaultSurvivesRestart(t *testing.T) {
	p, rt, c := vaultEnv(t)
	v := NewStageVault(c)
	work := c.Heap.Alloc(32)
	p.AS.WriteAt(work, []byte("stage-input-state"))
	v.Save("grad", work, 17)
	// The stage body corrupts the buffer, then crashes.
	p.AS.WriteAt(work, []byte("half-written-junk"))
	info := c.Heap.Alloc(16)
	p.AS.WritePtr(info, v.Addr())
	p.AS.WritePtr(info+8, work)

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
	v2 := OpenStageVault(c2, np.AS.ReadPtr(rt2.RecoveryInfo()))
	work2 := np.AS.ReadPtr(rt2.RecoveryInfo() + 8)
	v2.Restore("grad", work2)
	if !bytes.Equal(np.AS.ReadBytes(work2, 17), []byte("stage-input-state")) {
		t.Fatal("vault copy lost across restart")
	}
	// Cleanup keeps the vault and its copies.
	rt2.FinishRecovery(func() {
		v2.Mark()
		h2.Mark(rt2.RecoveryInfo())
	})
	rt2.AwaitCleanup()
	if v2.Len("grad") != 17 {
		t.Fatal("sweep collected the vault")
	}
}
