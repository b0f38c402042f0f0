package kernel

// The parallel preserve walks must be invisible: whatever the worker-pool
// width, the staged plan, the handoff accounting, the checksum cache, the
// destination bytes, and the simulated clock are byte-identical to the
// serial walk's. These tests (and FuzzParallelPreserveMergeOrder) pin that
// merge-order contract, which is what same-seed campaign byte-identity and
// the explore replay gate stand on.

import (
	"bytes"
	"testing"

	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

const (
	parBase  = mem.VAddr(0x3000_0000)
	parAux   = mem.VAddr(0x3800_0000)
	parPages = 12
)

// preserveTwice builds a process with a full-page region plus a sub-page
// range (so the plan stages both moves and partial copies), preserves it to
// establish the checksum cache, rewrites the pages selected by dirtyMask,
// and preserves again. It returns the final process.
func preserveTwice(t *testing.T, workers int, dirtyMask uint32, fill byte) *Process {
	t.Helper()
	m := NewMachine(42)
	m.workers = workers
	p, err := m.Spawn(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AS.Map(parBase, parPages, mem.KindCustom, "state"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AS.Map(parAux, 1, mem.KindCustom, "aux"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, parPages*mem.PageSize)
	for i := range buf {
		buf[i] = byte(i*11) + fill
	}
	p.AS.WriteAt(parBase, buf)
	p.AS.WriteAt(parAux+100, []byte("partial-page payload"))

	spec := ExecSpec{
		InfoAddr: parBase,
		Ranges: []linker.Range{
			{Start: parBase, Len: parPages * mem.PageSize},
			{Start: parAux + 100, Len: 300},
		},
	}
	np, err := p.PreserveExec(spec)
	if err != nil {
		t.Fatal(err)
	}
	settle(t, np)
	for i := 0; i < parPages; i++ {
		if dirtyMask&(1<<i) != 0 {
			np.AS.WriteU64(parBase+mem.VAddr(i)*mem.PageSize+8, uint64(dirtyMask)*31+uint64(i))
		}
	}
	np2, err := np.PreserveExec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return settle(t, np2)
}

// samePreserve asserts two final processes are indistinguishable: handoff
// accounting, checksum cache, page contents, dirty bits, and machine clock.
func samePreserve(t *testing.T, a, b *Process) {
	t.Helper()
	ha, hb := a.Handoff(), b.Handoff()
	if ha.MovedPages != hb.MovedPages || ha.CopiedPages != hb.CopiedPages ||
		ha.VerifiedChecksums != hb.VerifiedChecksums || ha.ReusedChecksums != hb.ReusedChecksums {
		t.Fatalf("handoff accounting diverged: %+v vs %+v", ha, hb)
	}
	if len(ha.PageSums) != len(hb.PageSums) {
		t.Fatalf("checksum cache size diverged: %d vs %d", len(ha.PageSums), len(hb.PageSums))
	}
	for pg, sa := range ha.PageSums {
		if sb, ok := hb.PageSums[pg]; !ok || sb != sa {
			t.Fatalf("checksum cache diverged at page %d: %#x vs %#x (present=%v)", pg, sa, sb, ok)
		}
	}
	for i := 0; i < parPages; i++ {
		addr := parBase + mem.VAddr(i)*mem.PageSize
		pg := mem.PageOf(addr)
		if !bytes.Equal(a.AS.ReadBytes(addr, mem.PageSize), b.AS.ReadBytes(addr, mem.PageSize)) {
			t.Fatalf("page %d contents diverged", i)
		}
		if a.AS.PageDirty(pg) != b.AS.PageDirty(pg) {
			t.Fatalf("page %d dirty bit diverged", i)
		}
	}
	if !bytes.Equal(a.AS.ReadBytes(parAux+100, 300), b.AS.ReadBytes(parAux+100, 300)) {
		t.Fatal("partial-copy bytes diverged")
	}
	if an, bn := a.Machine.Clock.Now(), b.Machine.Clock.Now(); an != bn {
		t.Fatalf("simulated clocks diverged: %v vs %v", an, bn)
	}
}

func TestParallelPreserveByteIdentity(t *testing.T) {
	for _, mask := range []uint32{0, 1, 0b101, 0xFFF} {
		serial := preserveTwice(t, 1, mask, 3)
		for _, w := range []int{2, 4, 8} {
			samePreserve(t, serial, preserveTwice(t, w, mask, 3))
		}
	}
}

func TestParallelMigrationByteIdentity(t *testing.T) {
	run := func(workers int) (*Process, *Machine, []RoundStats) {
		src := NewMachine(7)
		src.workers = workers
		p, err := src.Spawn(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AS.Map(parBase, parPages, mem.KindCustom, "state"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < parPages; i++ {
			p.AS.WriteU64(parBase+mem.VAddr(i)*mem.PageSize, uint64(i)+100)
		}
		spec := ExecSpec{
			InfoAddr: parBase,
			Ranges:   []linker.Range{{Start: parBase, Len: parPages * mem.PageSize}},
		}
		dst := NewMachine(8)
		dst.workers = workers
		mg, err := StartMigration(p, dst, func() (ExecSpec, error) { return spec, nil })
		if err != nil {
			t.Fatal(err)
		}
		var stats []RoundStats
		st, err := mg.DeltaRound()
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
		// Dirty a few pages between rounds, including one rewritten with
		// identical bytes (hashed but not shipped).
		p.AS.WriteU64(parBase+2*mem.PageSize, 999)
		p.AS.WriteU64(parBase+5*mem.PageSize, uint64(5)+100)
		if st, err = mg.DeltaRound(); err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
		np, st, err := mg.Cutover()
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
		return np, dst, stats
	}

	np1, dst1, st1 := run(1)
	for _, w := range []int{4, 8} {
		npW, dstW, stW := run(w)
		for i := range st1 {
			if st1[i] != stW[i] {
				t.Fatalf("round %d stats diverged between workers=1 and workers=%d: %+v vs %+v", i, w, st1[i], stW[i])
			}
		}
		for i := 0; i < parPages; i++ {
			addr := parBase + mem.VAddr(i)*mem.PageSize
			if !bytes.Equal(np1.AS.ReadBytes(addr, mem.PageSize), npW.AS.ReadBytes(addr, mem.PageSize)) {
				t.Fatalf("migrated page %d diverged between workers=1 and workers=%d", i, w)
			}
		}
		if dst1.Clock.Now() != dstW.Clock.Now() {
			t.Fatalf("destination clocks diverged: %v vs %v", dst1.Clock.Now(), dstW.Clock.Now())
		}
	}
}

// FuzzParallelPreserveMergeOrder: for arbitrary dirty sets, content, and
// pool widths, the parallel staging produces byte-identical plans vs the
// serial path.
func FuzzParallelPreserveMergeOrder(f *testing.F) {
	f.Add(uint32(0), uint8(4), uint8(0))
	f.Add(uint32(1), uint8(2), uint8(7))
	f.Add(uint32(0b1010_1010_1010), uint8(8), uint8(200))
	f.Add(uint32(0xFFFFFFFF), uint8(3), uint8(42))

	f.Fuzz(func(t *testing.T, mask uint32, workers, fill uint8) {
		w := 2 + int(workers)%(maxWorkers-1)
		serial := preserveTwice(t, 1, mask, byte(fill))
		parallel := preserveTwice(t, w, mask, byte(fill))
		samePreserve(t, serial, parallel)
	})
}
