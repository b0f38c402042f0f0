package mem

// Frozen copies — snapshot versions, clones and fork copies — share page
// buffers with the live space copy-on-write: the copy happens at the first
// write of each page afterwards, in materialize. These tests pin where the
// copy happens with allocation counts and pointer identity, and the fuzz
// target checks every frozen copy against a byte model captured when it was
// taken.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"
)

// allocs reports the heap objects and bytes fn allocates, the minimum over a
// few trials so a stray runtime allocation cannot inflate the count. setup
// runs before each trial, outside the measurement; GOMAXPROCS is pinned to 1
// like testing.AllocsPerRun.
func allocs(setup func() func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	objects, bytes = ^uint64(0), ^uint64(0)
	for range 5 {
		fn := setup()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// sameBuffer reports whether two frames hold one page buffer.
func sameBuffer(a, b *Frame) bool {
	return a != nil && b != nil && a.Data != nil && unsafe.SliceData(a.Data) == unsafe.SliceData(b.Data)
}

// TestFrameSize pins the share and snapshot bits in the padding after
// Dirty: a Frame stays 40 bytes, so spaces with tens of thousands of frames
// do not grow.
func TestFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got != 40 {
		t.Fatalf("Frame is %d bytes, want 40", got)
	}
}

// TestCommitSharesBufferUntilFirstWrite: a commit aliases the live buffer
// into the view; the first write to the page copies it (one allocation) and
// leaves the view reading the committed bytes; later writes copy nothing.
func TestCommitSharesBufferUntilFirstWrite(t *testing.T) {
	var as *AddressSpace
	var v *SnapshotVersion
	p := PageOf(snapBase)
	setup := func() {
		as = newSnapSpace(t, 2)
		as.WriteU64(snapBase, 1)
		v = NewSnapshotStore(as).Commit()
	}
	setup()
	if !sameBuffer(v.view.frameAt(p), as.frameAt(p)) {
		t.Fatal("commit copied the page instead of sharing the live buffer")
	}
	if v.view.frameAt(p) == as.frameAt(p) {
		t.Fatal("view holds the live frame itself; only the buffer may be shared")
	}

	objs, n := allocs(func() func() {
		setup()
		return func() { as.WriteU64(snapBase, 2) }
	})
	if objs != 1 || n < PageSize {
		t.Fatalf("first write after commit allocated %d objects (%d bytes), want one page buffer", objs, n)
	}
	if sameBuffer(v.view.frameAt(p), as.frameAt(p)) {
		t.Fatal("first write did not give the live frame its own buffer")
	}
	if got := v.View().ReadU64(snapBase); got != 1 {
		t.Fatalf("view reads %d after a live write, want the committed 1", got)
	}
	if got := as.ReadU64(snapBase); got != 2 {
		t.Fatalf("live space reads %d, want 2", got)
	}

	objs, _ = allocs(func() func() { return func() { as.WriteU64(snapBase, 3) } })
	if objs != 0 {
		t.Fatalf("second write to the page allocated %d objects, want 0", objs)
	}
}

// TestSnapshotFaultsCountCommitSharesOnly: the first write after a commit
// to a page the commit shared is one snapshot fault, whether a CRIU-style
// clone also shares the page or not; a second write, a write to a page only
// a clone or a fork copy shares, and writes inside the clone count none.
func TestSnapshotFaultsCountCommitSharesOnly(t *testing.T) {
	as := newSnapSpace(t, 4)
	for i := range 3 {
		as.WriteU64(snapBase+VAddr(i)*PageSize, uint64(i)+1)
	}
	NewSnapshotStore(as).Commit()
	faults := func(want int, what string) {
		t.Helper()
		if got := as.SnapshotFaults(); got != want {
			t.Fatalf("after %s: %d snapshot faults, want %d", what, got, want)
		}
	}
	as.WriteU64(snapBase, 10)
	faults(1, "the first write to a committed page")
	as.WriteU64(snapBase, 11)
	faults(1, "a second write to it")
	as.WriteU64(snapBase+3*PageSize, 12)
	faults(1, "a write to a page without data at the commit")

	clone := as.Clone()
	fork := NewAddressSpace()
	if _, err := as.CopyPages(fork, snapBase+2*PageSize, 1, KindCustom, "fork"); err != nil {
		t.Fatal(err)
	}
	as.WriteU64(snapBase, 13)
	faults(1, "a write to a page only the clone shares")
	as.WriteU64(snapBase+PageSize, 14)
	faults(2, "a write to a page the commit and the clone share")
	clone.WriteU64(snapBase+2*PageSize, 15)
	faults(2, "a write inside the clone")
	if clone.SnapshotFaults() != 0 {
		t.Fatalf("the clone counted %d snapshot faults, want 0", clone.SnapshotFaults())
	}
	as.WriteU64(snapBase+2*PageSize, 16)
	faults(3, "a write to a page the commit, the clone and the fork share")
}

// TestCommitAllocsOnePerChangedPage: an incremental commit allocates one
// frame struct per changed page and no page buffer.
func TestCommitAllocsOnePerChangedPage(t *testing.T) {
	const pages, k = 16, 5
	commitAfter := func(written int) (objects, bytes uint64) {
		return allocs(func() func() {
			as := newSnapSpace(t, pages)
			for i := range pages {
				as.WriteU64(snapBase+VAddr(i)*PageSize, uint64(i)+1)
			}
			st := NewSnapshotStore(as)
			st.Commit()
			for i := range written {
				as.WriteU64(snapBase+VAddr(i)*PageSize, 99)
			}
			return func() {
				if got := st.Commit().Changed(); got != written {
					t.Fatalf("commit after %d writes changed %d pages", written, got)
				}
			}
		})
	}
	base, _ := commitAfter(0)
	objs, n := commitAfter(k)
	if objs-base != k {
		t.Fatalf("commit of %d changed pages allocated %d objects more than a clean commit, want %d", k, objs-base, k)
	}
	if n >= PageSize {
		t.Fatalf("commit of %d changed pages allocated %d bytes: a page buffer was copied", k, n)
	}
}

// TestCloneAndCopyPagesShareBuffers: Clone and CopyPages alias every resident
// buffer, and each side's first write copies only its own page.
func TestCloneAndCopyPagesShareBuffers(t *testing.T) {
	as := newSnapSpace(t, 3)
	as.WriteU64(snapBase, 1)
	as.WriteU64(snapBase+PageSize, 2)
	cl := as.Clone()
	fork := NewAddressSpace()
	if _, err := as.CopyPages(fork, snapBase, 3, KindCustom, "fork"); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		p := PageOf(snapBase) + PageNum(i)
		if !sameBuffer(cl.frameAt(p), as.frameAt(p)) || !sameBuffer(fork.frameAt(p), as.frameAt(p)) {
			t.Fatalf("page %d: clone or fork copied the buffer instead of sharing it", i)
		}
	}
	cl.WriteU64(snapBase, 10)
	fork.WriteU64(snapBase+PageSize, 20)
	as.WriteU64(snapBase+PageSize, 30)
	for _, c := range []struct {
		space  *AddressSpace
		name   string
		p0, p1 uint64
	}{{as, "live", 1, 30}, {cl, "clone", 10, 2}, {fork, "fork", 1, 20}} {
		if a, b := c.space.ReadU64(snapBase), c.space.ReadU64(snapBase+PageSize); a != c.p0 || b != c.p1 {
			t.Errorf("%s reads (%d, %d), want (%d, %d)", c.name, a, b, c.p0, c.p1)
		}
	}
}

// TestCloneAllocsOneSlabPerMapping pins Clone's allocations: the space and
// its two mapping indexes, then per mapping its header, its page table and
// one slab for all its frames, however many pages are resident.
func TestCloneAllocsOneSlabPerMapping(t *testing.T) {
	as := NewAddressSpace()
	for i, pages := range []int{64, 8, 4} {
		if _, err := as.Map(snapBase+VAddr(i)<<24, pages, KindCustom, "m"); err != nil {
			t.Fatal(err)
		}
	}
	clone := func() { as.Clone() }
	if got := testing.AllocsPerRun(20, clone); got != 3+2*3 {
		t.Fatalf("clone of three mappings without frames made %v allocations, want 9", got)
	}
	for p := range 64 {
		as.WriteU64(snapBase+VAddr(p)*PageSize, 1)
	}
	for p := range 3 {
		as.WriteU64(snapBase+1<<24+VAddr(p)*PageSize, 1)
	}
	if got := testing.AllocsPerRun(20, clone); got != 3+3*2+2 {
		t.Fatalf("clone of 67 frames in two of three mappings made %v allocations, want 11", got)
	}
}

// FuzzFrameShareInterleave interleaves writes, zeroes, bit flips, snapshot
// commits, opens and releases, clones (and clones of clones), CopyPages
// forks, MovePages/UnmovePages round trips and rewind domains over a small
// space, all sharing buffers copy-on-write. Every held view, clone and fork
// copy must keep reading the byte model captured when it was taken (plus its
// own writes), and the live space must match its own model, however the
// writes interleave. Clones and fork copies add no snapshot fault, so the
// live space's faults between two commits stay at most the second commit's
// Changed().
func FuzzFrameShareInterleave(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 7, 0, 5, 9, 0, 1, 2, 6, 4, 0, 1, 1})
	f.Add([]byte{5, 0, 3, 6, 1, 2, 8, 5, 11, 4, 0, 2, 2, 12, 9, 3, 0, 7, 7})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, 9))

	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages = 4
		const span = pages * PageSize
		// Bound the work per input: every held copy keeps a 16 KiB model.
		ops = ops[:min(len(ops), 512)]
		as := newSnapSpace(t, pages)
		st := NewSnapshotStore(as)
		model := make([]byte, span) // the live space's bytes

		// A frozen copy maps pages [lo, lo+n) of the space; model holds the
		// bytes of all pages, of which only that range is compared.
		type frozen struct {
			name  string
			space *AddressSpace
			v     *SnapshotVersion // non-nil for an open snapshot version
			lo, n int
			model []byte
		}
		var held []frozen
		var committed []byte // model at the latest commit
		lastFaults := 0      // the live space's SnapshotFaults at the latest commit

		i := 0
		next := func() byte {
			i++
			if i <= len(ops) {
				return ops[i-1]
			}
			return 0
		}
		offset := func(room int) int { return (int(next())<<8 | int(next())) % (span - room) }
		write := func(space *AddressSpace, m []byte, off int, val uint64) {
			space.WriteU64(snapBase+VAddr(off), val)
			binary.LittleEndian.PutUint64(m[off:], val)
		}
		zero := func(space *AddressSpace, m []byte, off, n int) {
			space.Zero(snapBase+VAddr(off), n)
			clear(m[off : off+n])
		}
		for i < len(ops) {
			switch next() % 14 {
			case 0, 1: // writes dominate the mix
				write(as, model, offset(8), uint64(next())*0x9E3779B97F4A7C15+1)
			case 2:
				off := offset(0)
				zero(as, model, off, min(int(next())*40, span-off))
			case 3:
				off, bit := offset(0), next()
				as.FlipBit(snapBase+VAddr(off), uint(bit))
				model[off] ^= 1 << (bit % 8)
			case 4:
				faults := as.SnapshotFaults()
				if v := st.Commit(); faults-lastFaults > v.Changed() {
					t.Fatalf("%d snapshot faults since the last commit, above this commit's %d changed pages",
						faults-lastFaults, v.Changed())
				}
				lastFaults = faults
				committed = bytes.Clone(model)
			case 5:
				if v := st.Open(); v != nil {
					held = append(held, frozen{"view", v.View(), v, 0, pages, committed})
				}
			case 6:
				if len(held) > 0 {
					k := int(next()) % len(held)
					if v := held[k].v; v != nil {
						st.Release(v)
					}
					held = append(held[:k], held[k+1:]...)
				}
			case 7:
				held = append(held, frozen{"clone", as.Clone(), nil, 0, pages, bytes.Clone(model)})
			case 8: // clone the newest held clone or fork (never a view)
				for k := len(held) - 1; k >= 0; k-- {
					if h := held[k]; h.v == nil {
						held = append(held, frozen{"clone of " + h.name, h.space.Clone(), nil, h.lo, h.n, h.model})
						break
					}
				}
			case 9:
				lo := int(next()) % pages
				n := 1 + int(next())%(pages-lo)
				fork := NewAddressSpace()
				if _, err := as.CopyPages(fork, snapBase+VAddr(lo)*PageSize, n, KindCustom, "fork"); err != nil {
					t.Fatal(err)
				}
				held = append(held, frozen{"fork", fork, nil, lo, n, bytes.Clone(model)})
			case 10: // move a range out, write it in the successor, move it back
				lo := int(next()) % pages
				n := 1 + int(next())%(pages-lo)
				dst := NewAddressSpace()
				if _, err := as.MovePages(dst, snapBase+VAddr(lo)*PageSize, n); err != nil {
					t.Fatal(err)
				}
				write(dst, model, lo*PageSize+int(next())%(n*PageSize-8), uint64(next())+0xABCD)
				dst.UnmovePages(as, snapBase+VAddr(lo)*PageSize, n)
			case 11: // a rewind domain around a few writes, committed or discarded
				if err := as.BeginRewindDomain(); err != nil {
					t.Fatal(err)
				}
				pre := bytes.Clone(model)
				for range 1 + int(next())%3 {
					write(as, model, offset(8), uint64(next())+7)
					zero(as, model, offset(16), 16)
					if next()%3 == 0 { // a clone taken mid-domain keeps the mid-domain bytes
						held = append(held, frozen{"domain clone", as.Clone(), nil, 0, pages, bytes.Clone(model)})
					}
				}
				if next()%2 == 0 {
					if _, err := as.DiscardDomain(); err != nil {
						t.Fatal(err)
					}
					copy(model, pre)
				} else if _, err := as.CommitDomain(); err != nil {
					t.Fatal(err)
				}
			case 12: // write into a held clone or fork: its own model moves
				if len(held) > 0 {
					if h := &held[int(next())%len(held)]; h.v == nil {
						h.model = bytes.Clone(h.model)
						write(h.space, h.model, h.lo*PageSize+int(next())%(h.n*PageSize-8), uint64(next())|1<<40)
					}
				}
			case 13:
				as.ClearDirty(snapBase, pages)
			}
		}

		got := make([]byte, span)
		as.ReadAt(snapBase, got)
		if !bytes.Equal(got, model) {
			t.Fatal("live space diverged from its byte model")
		}
		for k, h := range held {
			lo, hi := h.lo*PageSize, (h.lo+h.n)*PageSize
			h.space.ReadAt(snapBase+VAddr(lo), got[lo:hi])
			if !bytes.Equal(got[lo:hi], h.model[lo:hi]) {
				t.Fatalf("held %s %d diverged from the model captured when it was taken", h.name, k)
			}
			if h.v != nil {
				if err := h.v.CheckFrozen(); err != nil {
					t.Fatal(err)
				}
				st.Release(h.v)
			}
		}
		if live := st.LiveVersions(); live > 1 {
			t.Fatalf("%d versions live after all releases, want at most the latest", live)
		}
	})
}
