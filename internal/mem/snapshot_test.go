package mem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

const snapBase = VAddr(0x5000_0000)

func newSnapSpace(t testing.TB, pages int) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	if _, err := as.Map(snapBase, pages, KindCustom, "snap"); err != nil {
		t.Fatal(err)
	}
	return as
}

func TestSnapshotIsolatesLaterWrites(t *testing.T) {
	as := newSnapSpace(t, 4)
	as.WriteAt(snapBase, []byte("version-one"))
	st := NewSnapshotStore(as)
	v1 := st.Commit()

	as.WriteAt(snapBase, []byte("version-TWO"))
	got := v1.View().ReadBytes(snapBase, 11)
	if !bytes.Equal(got, []byte("version-one")) {
		t.Fatalf("snapshot observed a post-commit write: %q", got)
	}
	if err := v1.CheckFrozen(); err != nil {
		t.Fatal(err)
	}

	v2 := st.Commit()
	if got := v2.View().ReadBytes(snapBase, 11); !bytes.Equal(got, []byte("version-TWO")) {
		t.Fatalf("new version missing the write: %q", got)
	}
	if got := v1.View(); got != nil {
		t.Fatal("superseded unreferenced version was not retired at commit")
	}
}

func TestSnapshotSharesUnchangedPages(t *testing.T) {
	const pages = 16
	as := newSnapSpace(t, pages)
	for i := 0; i < pages; i++ {
		as.WriteU64(snapBase+VAddr(i)*PageSize, uint64(i)+1)
	}
	st := NewSnapshotStore(as)
	v1 := st.Commit()
	if v1.Changed() != pages {
		t.Fatalf("first commit copied %d pages, want %d", v1.Changed(), pages)
	}

	// Hold v1 so both versions stay live, touch one page, commit again.
	h := st.Open()
	as.WriteU64(snapBase+3*PageSize, 999)
	v2 := st.Commit()
	if v2.Changed() != 1 {
		t.Fatalf("incremental commit copied %d pages, want 1", v2.Changed())
	}
	if got := st.RetainedPages(); got != pages+1 {
		t.Fatalf("retained %d distinct frames, want %d (full set + one rewritten page)", got, pages+1)
	}
	if got := v1.View().ReadU64(snapBase + 3*PageSize); got != 4 {
		t.Fatalf("old version page changed: %d", got)
	}
	if got := v2.View().ReadU64(snapBase + 3*PageSize); got != 999 {
		t.Fatalf("new version missing write: %d", got)
	}
	st.Release(h)
	if live := st.LiveVersions(); live != 1 {
		t.Fatalf("%d live versions after release, want 1 (latest)", live)
	}
	if st.RetiredVersions() != 1 {
		t.Fatalf("retired %d versions, want 1", st.RetiredVersions())
	}
}

func TestSnapshotNonResidentReadsZero(t *testing.T) {
	as := newSnapSpace(t, 2)
	as.WriteAt(snapBase+PageSize, []byte{0xAA})
	st := NewSnapshotStore(as)
	v := st.Commit()
	if got := v.View().ReadBytes(snapBase, 8); !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("non-resident page read %x, want zeros", got)
	}
	// Zero releases residency on the live side; the snapshot keeps its bytes.
	as.Zero(snapBase+PageSize, PageSize)
	if got := v.View().ReadU8(snapBase + PageSize); got != 0xAA {
		t.Fatalf("snapshot lost its byte after live Zero: %#x", got)
	}
	v2 := st.Commit()
	if got := v2.View().ReadU8(snapBase + PageSize); got != 0 {
		t.Fatalf("post-Zero version reads %#x, want 0", got)
	}
}

func TestSnapshotReleasePanicsWithoutOpen(t *testing.T) {
	as := newSnapSpace(t, 1)
	st := NewSnapshotStore(as)
	v := st.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Open did not panic")
		}
	}()
	st.Release(v)
}

func TestSnapshotCheckFrozenCatchesLeakedFrame(t *testing.T) {
	as := newSnapSpace(t, 2)
	as.WriteU64(snapBase, 1)
	st := NewSnapshotStore(as)
	v := st.Commit()

	// Simulate the bug the oracle exists for: alias a live frame into the
	// frozen view, then write through the live space.
	*v.view.resolve(snapBase) = *as.resolve(snapBase)
	as.WriteU64(snapBase, 2)
	if err := v.CheckFrozen(); err == nil {
		t.Fatal("CheckFrozen missed a live frame aliased into the view")
	}
}

// TestSnapshotConcurrentReaders hammers Open/read/Release from many
// goroutines against a committing writer; run under -race this is the
// package-level half of the stale-snapshot battery. Each reader validates
// that the pair of values it observes is a consistent committed pair.
func TestSnapshotConcurrentReaders(t *testing.T) {
	as := newSnapSpace(t, 8)
	st := NewSnapshotStore(as)
	// The writer keeps two cells in lockstep; a torn snapshot shows up as a
	// mismatched pair.
	commit := func(n uint64) {
		as.WriteU64(snapBase, n)
		as.WriteU64(snapBase+7*PageSize, n)
		st.Commit()
	}
	commit(1)

	// The writer starts only once every reader is running, so its writes
	// land while readers hold versions that share buffers with the live
	// pages: a write that skips the copy-on-write copy is a reported race.
	var wg, ready sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := st.Open()
				a := v.View().ReadU64(snapBase)
				b := v.View().ReadU64(snapBase + 7*PageSize)
				if a != b {
					errs <- fmt.Errorf("torn snapshot: %d != %d", a, b)
				}
				if err := v.CheckFrozen(); err != nil {
					errs <- err
				}
				st.Release(v)
			}
		}()
	}
	ready.Wait()
	for n := uint64(2); n < 200; n++ {
		commit(n)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if live := st.LiveVersions(); live != 1 {
		t.Fatalf("%d live versions after all readers released, want 1", live)
	}
	if got, want := st.RetainedPages(), 2; got != want {
		t.Fatalf("latest version retains %d frames, want %d", got, want)
	}
}

// FuzzSnapshotInterleave drives a random interleaving of writes, zeroes,
// commits, opens, and releases, and checks every still-held version
// round-trips byte-exactly against the plain map model captured at its
// commit — the MVCC store may share and retire frames however it likes, but
// a version's contents are immutable. It also models the snapshot faults: a
// commit shares every resident page with the latest version, which the
// store always retains, and the first write or zero of a shared page is one
// fault; a second is none. Faults between two commits never exceed the
// second commit's Changed().
func FuzzSnapshotInterleave(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 7, 3, 4, 0, 20, 1, 9, 3, 4, 5, 0})
	f.Add([]byte{3, 4, 2, 30, 0, 1, 2, 3, 3, 4, 2, 0, 3, 4, 5, 1, 5, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 12))

	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages = 4
		as := newSnapSpace(t, pages)
		st := NewSnapshotStore(as)

		capture := func() [][]byte {
			out := make([][]byte, pages)
			for i := range out {
				out[i] = as.ReadBytes(snapBase+VAddr(i)*PageSize, PageSize)
			}
			return out
		}
		type held struct {
			v     *SnapshotVersion
			model [][]byte
		}
		var holds []held
		var lastModel [][]byte
		var shared [pages]bool
		faults, lastFaults := 0, 0
		// mutate models a write or zero of [off, off+n): each shared page
		// in the range takes one fault and is private afterwards.
		mutate := func(off, n int) {
			for pg := off / PageSize; pg <= (off+n-1)/PageSize; pg++ {
				if shared[pg] {
					shared[pg] = false
					faults++
				}
			}
		}

		i := 0
		next := func() byte {
			if i < len(ops) {
				b := ops[i]
				i++
				return b
			}
			i++
			return 0
		}
		for i < len(ops) {
			switch next() % 6 {
			case 0, 1: // writes dominate the mix
				off := (int(next())<<8 | int(next())) % (pages*PageSize - 8)
				as.WriteU64(snapBase+VAddr(off), uint64(next())*0x9E3779B97F4A7C15+1)
				mutate(off, 8)
			case 2:
				off := int(next()) * 37 % (pages*PageSize - 64)
				as.Zero(snapBase+VAddr(off), 64)
				mutate(off, 64)
			case 3:
				if got := as.SnapshotFaults(); got != faults {
					t.Fatalf("%d snapshot faults counted, the model took %d", got, faults)
				}
				v := st.Commit()
				if faults-lastFaults > v.Changed() {
					t.Fatalf("%d snapshot faults since the last commit, above this commit's %d changed pages",
						faults-lastFaults, v.Changed())
				}
				lastFaults = faults
				for pg := range shared {
					shared[pg] = as.PageResident(PageOf(snapBase) + PageNum(pg))
				}
				lastModel = capture()
			case 4:
				if v := st.Open(); v != nil {
					holds = append(holds, held{v, lastModel})
				}
			case 5:
				if len(holds) > 0 {
					k := int(next()) % len(holds)
					st.Release(holds[k].v)
					holds = append(holds[:k], holds[k+1:]...)
				}
			}
		}

		if got := as.SnapshotFaults(); got != faults {
			t.Fatalf("%d snapshot faults counted, the model took %d", got, faults)
		}
		for hi, h := range holds {
			if err := h.v.CheckFrozen(); err != nil {
				t.Fatal(err)
			}
			for pg := 0; pg < pages; pg++ {
				got := h.v.View().ReadBytes(snapBase+VAddr(pg)*PageSize, PageSize)
				if !bytes.Equal(got, h.model[pg]) {
					t.Fatalf("held version %d (seq %d) page %d diverged from the model captured at its commit",
						hi, h.v.Seq(), pg)
				}
			}
			st.Release(h.v)
		}
		if live := st.LiveVersions(); live > 1 {
			t.Fatalf("%d versions live after all releases, want at most the latest", live)
		}
		if st.RetainedPages() > pages {
			t.Fatalf("latest version retains %d frames for a %d-page space", st.RetainedPages(), pages)
		}
	})
}
