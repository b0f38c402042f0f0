package heap

import (
	"bytes"
	"testing"

	"phoenix/internal/mem"
)

// liveChunk is one allocation the model expects the heap to hold.
type liveChunk struct {
	p     mem.VAddr
	n     int // requested payload bytes
	size  int // chunk bytes, header included
	large bool
	fill  byte
}

// heapModel mirrors what a Heap must hold: the live allocations with their
// fill bytes, and each size class's free list of payload addresses, most
// recently freed last.
type heapModel struct {
	t      *testing.T
	as     *mem.AddressSpace
	h      *Heap
	live   []liveChunk
	free   map[int][]mem.VAddr
	serial byte
}

func (m *heapModel) alloc(n int) {
	t := m.t
	if len(m.live) >= 32 {
		m.freeAt(int(m.serial))
		return
	}
	p := m.h.Alloc(n)
	if p == mem.NullPtr {
		t.Fatalf("Alloc(%d) failed", n)
	}
	usable := m.h.UsableSize(p)
	if usable < n {
		t.Fatalf("Alloc(%d): UsableSize %d, want at least %d", n, usable, n)
	}
	// glibc's request2size: up to the last 16-byte class, a request takes
	// the smallest multiple of 16 holding it and the 8-byte size word, and
	// at least 32 bytes; the size word is all that is not usable.
	if n <= 1016 {
		if want := max(32, (n+8+15)&^15) - 8; usable != want {
			t.Fatalf("Alloc(%d): UsableSize %d, want glibc's %d", n, usable, want)
		}
	}
	size := usable + chunkHeader
	need := (n + chunkHeader + 7) &^ 7
	if need < MmapThreshold {
		if want := classSizes[classFor(need)]; size != want {
			t.Fatalf("Alloc(%d) took a %d-byte chunk, want class %d", n, size, want)
		}
		if fl := m.free[size]; len(fl) > 0 {
			if top := fl[len(fl)-1]; p != top {
				t.Fatalf("Alloc(%d) = %#x, want the last freed %d-byte chunk %#x", n, uint64(p), size, uint64(top))
			}
			m.free[size] = fl[:len(fl)-1]
		}
	}
	for _, c := range m.live {
		if p < c.p+mem.VAddr(c.n) && c.p < p+mem.VAddr(n) {
			t.Fatalf("Alloc(%d) = %#x overlaps live [%#x,+%d)", n, uint64(p), uint64(c.p), c.n)
		}
	}
	m.serial++
	m.as.WriteAt(p, bytes.Repeat([]byte{m.serial}, n))
	m.live = append(m.live, liveChunk{p: p, n: n, size: size, large: need >= MmapThreshold, fill: m.serial})
}

// released records chunk c as freed: arena chunks go on their class's free
// list; large regions are unmapped.
func (m *heapModel) released(c liveChunk) {
	if !c.large {
		m.free[c.size] = append(m.free[c.size], c.p)
	}
}

func (m *heapModel) freeAt(i int) {
	if len(m.live) == 0 {
		return
	}
	i %= len(m.live)
	c := m.live[i]
	m.h.Free(c.p)
	m.live = append(m.live[:i], m.live[i+1:]...)
	m.released(c)
}

// markSweep marks the live chunks whose index has its bit set in mask and
// sweeps: every other live chunk is freed, in Walk order.
func (m *heapModel) markSweep(mask byte) {
	t := m.t
	var keep []liveChunk
	garbage := map[mem.VAddr]liveChunk{}
	var garbageBytes int64
	for i, c := range m.live {
		if mask>>(i%8)&1 != 0 {
			m.h.Mark(c.p)
			keep = append(keep, c)
		} else {
			garbage[c.p] = c
			garbageBytes += int64(c.size)
		}
	}
	var order []liveChunk
	m.h.Walk(func(p mem.VAddr, _ int, inUse, marked bool) bool {
		if inUse && !marked {
			c, ok := garbage[p]
			if !ok {
				t.Fatalf("Walk reports unmarked in-use chunk %#x the model does not hold as garbage", uint64(p))
			}
			order = append(order, c)
		}
		return true
	})
	freed, freedBytes, _ := m.h.Sweep()
	if freed != len(garbage) || len(order) != len(garbage) || freedBytes != garbageBytes {
		t.Fatalf("Sweep freed %d chunks (%d bytes, %d walked), want %d (%d bytes)",
			freed, freedBytes, len(order), len(garbage), garbageBytes)
	}
	m.live = keep
	for _, c := range order {
		m.released(c)
	}
}

// reattach moves every heap page into a fresh address space, as
// preserve_exec does, and rebuilds the Heap there from memory alone.
func (m *heapModel) reattach() {
	dst := mem.NewAddressSpace()
	for _, r := range m.h.PreservedRanges() {
		if _, err := m.as.MovePages(dst, r.Start, r.Len/mem.PageSize); err != nil {
			m.t.Fatal(err)
		}
	}
	h, err := Attach(dst, testBase, Options{})
	if err != nil {
		m.t.Fatal(err)
	}
	m.as, m.h = dst, h
}

// check compares the heap with the model: accounting and the in-use and free
// sets Walk reports, and with fills every live payload's fill bytes.
func (m *heapModel) check(fills bool) {
	t := m.t
	var liveBytes int64
	want := map[mem.VAddr]liveChunk{}
	for _, c := range m.live {
		liveBytes += int64(c.size)
		want[c.p] = c
	}
	if st := m.h.Stats(); st.LiveChunks != int64(len(m.live)) || st.LiveBytes != liveBytes {
		t.Fatalf("Stats %d chunks, %d bytes; model %d chunks, %d bytes", st.LiveChunks, st.LiveBytes, len(m.live), liveBytes)
	}
	freeSet := map[mem.VAddr]bool{}
	for _, fl := range m.free {
		for _, p := range fl {
			freeSet[p] = true
		}
	}
	inUse, free := 0, 0
	m.h.Walk(func(p mem.VAddr, size int, used, _ bool) bool {
		if used {
			inUse++
			if c, ok := want[p]; !ok || c.size != size {
				t.Fatalf("Walk reports in-use %#x (%d bytes); model holds %+v", uint64(p), size, c)
			}
		} else {
			free++
			if !freeSet[p] {
				t.Fatalf("Walk reports free %#x the model never freed", uint64(p))
			}
		}
		return true
	})
	if inUse != len(m.live) || free != len(freeSet) {
		t.Fatalf("Walk saw %d in use and %d free, model %d and %d", inUse, free, len(m.live), len(freeSet))
	}
	if !fills {
		return
	}
	for _, c := range m.live {
		if got := m.as.ReadBytes(c.p, c.n); !bytes.Equal(got, bytes.Repeat([]byte{c.fill}, c.n)) {
			t.Fatalf("payload %#x of %d bytes lost its fill %#x", uint64(c.p), c.n, c.fill)
		}
	}
}

// FuzzHeapAllocFree drives the allocator with random allocations (arena
// classes, the coarse tail and the mmap path), frees, mark-and-sweep rounds
// and re-attaches after a simulated preserve, checking it against heapModel
// after every step; payload fills are compared after each sweep and
// re-attach and at the end. Each step is three bytes: an opcode, then two
// argument bytes. The seed corpus is testdata/fuzz/FuzzHeapAllocFree.
func FuzzHeapAllocFree(f *testing.F) {
	f.Fuzz(runOps)
}

func runOps(t *testing.T, ops []byte) {
	{
		as := mem.NewAddressSpace()
		h, err := New(as, testBase, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := &heapModel{t: t, as: as, h: h, free: map[int][]mem.VAddr{}}
		for steps := 0; len(ops) >= 3 && steps < 128; steps++ {
			op, v := ops[0], int(ops[1])<<8|int(ops[2])
			ops = ops[3:]
			fills := false
			switch op % 8 {
			case 0, 1, 2, 3:
				switch (op >> 3) % 4 {
				case 0, 1: // the 16-byte classes and the first tail class
					m.alloc(1 + v%1040)
				case 2: // any arena class, up to the mmap threshold
					m.alloc(1 + v)
				default: // either side of the mmap threshold, up to four pages past it
					m.alloc(MmapThreshold - 64 + v%(4*mem.PageSize))
				}
			case 4, 5:
				m.freeAt(v)
			case 6:
				m.markSweep(byte(v))
				fills = true
			default:
				m.reattach()
				fills = true
			}
			m.check(fills)
		}
		m.check(true)
	}
}
