// Package mem implements the simulated virtual-memory substrate that the
// PHOENIX reproduction runs on.
//
// An AddressSpace maps 4 KiB-page-aligned regions to physical Frames. Each
// Mapping owns its page table: one frame pointer per page, indexed from the
// mapping's start. Frames are allocated lazily on first write (an untouched
// mapped page reads as zeros, like anonymous memory). The key operation for
// PHOENIX is MovePages: transferring frame pointers — the page-table
// entries — from a dying address space into a fresh one with no data copy,
// which is the zero-copy transfer mechanism of §3.3.
//
// Accessing an unmapped address panics with *Fault. This mirrors a hardware
// page fault turning into SIGSEGV: application code that follows a dangling
// reference into discarded memory crashes, and the simulated kernel converts
// the panic into a signal (see internal/kernel).
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// VAddr is a simulated virtual address.
type VAddr uint64

// NullPtr is the canonical nil simulated pointer. Page zero is never mapped,
// so dereferencing NullPtr always faults.
const NullPtr VAddr = 0

// PageNum is a virtual page number (VAddr >> PageShift).
type PageNum uint64

// PageOf returns the page number containing addr.
func PageOf(addr VAddr) PageNum { return PageNum(addr >> PageShift) }

// PageBase returns the first address of the page containing addr.
func PageBase(addr VAddr) VAddr { return addr &^ (PageSize - 1) }

// PagesFor returns the number of pages needed to hold n bytes.
func PagesFor(n int) int { return (n + PageSize - 1) / PageSize }

// Fault describes an invalid simulated-memory access. It is used as a panic
// value; the kernel recovers it and delivers SIGSEGV.
type Fault struct {
	Addr VAddr
	Op   string // "read", "write", "map", "free"
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: fault: %s at %#x", f.Op, uint64(f.Addr))
}

// Kind labels what a mapping backs. It controls how the kernel and linker
// treat the region across a PHOENIX restart.
type Kind uint8

const (
	// KindBrk is the growing data segment managed by the heap's sbrk path.
	KindBrk Kind = iota
	// KindMmap is an anonymous mapping (heap arenas, large allocations).
	KindMmap
	// KindSection is a loaded binary section (.data/.bss/.phx.*).
	KindSection
	// KindStack is thread stack memory; always discarded on restart.
	KindStack
	// KindCustom is a user-managed preserved range (raw interface, §3.3).
	KindCustom
)

func (k Kind) String() string {
	switch k {
	case KindBrk:
		return "brk"
	case KindMmap:
		return "mmap"
	case KindSection:
		return "section"
	case KindStack:
		return "stack"
	case KindCustom:
		return "custom"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Frame is a physical page frame. Data is allocated on first write; a nil
// Data reads as zeros.
//
// Dirty is the frame's soft-dirty bit: set by every write path (including
// FlipBit, which models DMA/DRAM corruption that bypasses application-level
// store instrumentation but still goes through the MMU where soft-dirty
// lives), and cleared only by the preservation machinery after a verified
// commit. Because the bit lives on the frame, it travels with the frame
// through MovePages/UnmovePages and is duplicated by CopyPages/Clone.
//
// shared is the frame's copy-on-write bit: Data may also be the buffer of
// another frame — a snapshot version's, a clone's or a fork copy's — so the
// next write must copy it first (materialize). Frozen copies alias the
// buffer instead of duplicating it; the copy moves to the first write of
// each page afterwards. A bit rather than a count: the bit may outlive the
// last other holder of the buffer, which costs at most one needless copy,
// while a count would need atomics on the write path because snapshot
// versions are released from reader goroutines. It sits in the padding
// after Dirty, so a Frame stays 40 bytes.
//
// Gen is the frame's write-generation stamp: the value of the owning
// address space's monotonic write counter at the frame's last content
// mutation (writes, Zero, FlipBit, rewind-domain discard restores, and
// arrival via MovePages/CopyPages all count). Within one address space two
// distinct mutation events never share a stamp, so an observer that records
// PageGen(p) knows the page's bytes are unchanged for exactly as long as the
// stamp is. Live shard migration uses this to find its per-round delta
// without touching the preserve machinery's soft-dirty baseline. The
// counter starts at zero and is bumped before every stamp, so a frame's
// stamp is never 0; 0 is free to mean "no frame".
type Frame struct {
	Data   []byte
	Dirty  bool
	shared bool
	Gen    uint64
}

// materialize returns f's buffer ready for mutation and sets the soft-dirty
// bit: it allocates a zero page for a frame without data, and copies a
// shared buffer so the write stays private to f — the copy-on-write fault.
func (f *Frame) materialize() []byte {
	f.Dirty = true
	if f.Data == nil {
		f.Data = make([]byte, PageSize)
	} else if f.shared {
		f.Data = append([]byte(nil), f.Data...)
	}
	f.shared = false
	return f.Data
}

// fork returns a separate frame with f's tracking state and f's buffer,
// shared copy-on-write: both frames carry the share bit, so whichever
// writes the page first copies it. It copies no bytes. The frozen-copy
// paths (Commit, Clone, CopyPages) build their frames with it.
func (f *Frame) fork() Frame {
	f.shared = f.Data != nil
	return Frame{Data: f.Data, Dirty: f.Dirty, shared: f.shared, Gen: f.Gen}
}

// Mapping describes one contiguous mapped region.
type Mapping struct {
	Start VAddr
	Pages int
	Kind  Kind
	Name  string

	// ptes is the mapping's page table: ptes[i] is the frame of page
	// PageOf(Start)+i, nil until that page gets a frame. While the mapping
	// belongs to an address space, len(ptes) == Pages.
	ptes []*Frame
}

// End returns the first address past the mapping.
func (m *Mapping) End() VAddr { return m.Start + VAddr(m.Pages)*PageSize }

// Len returns the mapping length in bytes.
func (m *Mapping) Len() int { return m.Pages * PageSize }

// Contains reports whether addr falls inside the mapping.
func (m *Mapping) Contains(addr VAddr) bool {
	return addr >= m.Start && addr < m.End()
}

// resize sets the mapping's length to pages, extending its page table with
// empty slots or truncating it. Truncated slots are cleared, so growing the
// mapping again never brings their frames back.
func (m *Mapping) resize(pages int) {
	if pages < len(m.ptes) {
		clear(m.ptes[pages:])
		m.ptes = m.ptes[:pages]
	} else {
		m.ptes = append(m.ptes, make([]*Frame, pages-len(m.ptes))...)
	}
	m.Pages = pages
}

// AddressSpace is one process's simulated virtual memory.
//
// Lookups write nothing — no cache, no last-mapping hint — so any number of
// goroutines may read one space at once, as the kernel's preserve worker
// pool and MVCC snapshot readers do.
type AddressSpace struct {
	mappings []*Mapping // sorted by Start, non-overlapping
	starts   []VAddr    // starts[i] == mappings[i].Start: the lookup index

	// domain is the open rewind domain's undo log, nil when none (rewind.go).
	domain *rewindDomain

	// writeGen is the monotonic write-generation counter stamped onto frames
	// at every content mutation (see Frame.Gen). It only ever increases, so a
	// stamp is never reused — not even when a frame is dropped and a fresh
	// one created at the same page number.
	writeGen uint64

	// ASLRBase is the randomized layout offset chosen at first startup and
	// reused across PHOENIX restarts (§3.3, ASLR compatibility).
	ASLRBase VAddr
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// Map creates a mapping of pages pages starting at the page-aligned start.
// It returns an error if start is unaligned, the length is non-positive, the
// range overlaps an existing mapping, or the range includes page zero.
func (as *AddressSpace) Map(start VAddr, pages int, kind Kind, name string) (*Mapping, error) {
	if start%PageSize != 0 {
		return nil, fmt.Errorf("mem: Map %s: unaligned start %#x", name, uint64(start))
	}
	if pages <= 0 {
		return nil, fmt.Errorf("mem: Map %s: non-positive length %d", name, pages)
	}
	if start == 0 {
		return nil, fmt.Errorf("mem: Map %s: page zero is reserved", name)
	}
	m := &Mapping{Start: start, Pages: pages, Kind: kind, Name: name}
	if ov := as.overlap(m.Start, m.End()); ov != nil {
		return nil, fmt.Errorf("mem: Map %s: [%#x,%#x) overlaps %s [%#x,%#x)",
			name, uint64(start), uint64(m.End()), ov.Name, uint64(ov.Start), uint64(ov.End()))
	}
	m.ptes = make([]*Frame, pages)
	as.insert(m)
	if as.domain != nil {
		as.domain.journal = append(as.domain.journal, mapUndo{kind: undoMap, m: m})
	}
	return m, nil
}

// search returns how many mappings start at or below addr: a binary search
// over the contiguous starts index, with no closure and no writes.
func (as *AddressSpace) search(addr VAddr) int {
	lo, hi := 0, len(as.starts)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if as.starts[h] <= addr {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// resolve returns the page-table slot of addr's page, or nil when addr is
// unmapped. It is the one lookup every accessor and page query makes: a
// search of the starts index, then an index into the owning mapping's
// table.
func (as *AddressSpace) resolve(addr VAddr) **Frame {
	if i := as.search(addr); i > 0 {
		m := as.mappings[i-1]
		if j := uint64(addr-m.Start) >> PageShift; j < uint64(len(m.ptes)) {
			return &m.ptes[j]
		}
	}
	return nil
}

// frameAt returns page p's frame, or nil when p has none or is unmapped.
func (as *AddressSpace) frameAt(p PageNum) *Frame {
	if pte := as.resolve(VAddr(p) << PageShift); pte != nil {
		return *pte
	}
	return nil
}

// walk calls fn with the page number and page-table slot of every mapped
// page of [start, start+pages*PageSize), in address order.
func (as *AddressSpace) walk(start VAddr, pages int, fn func(p PageNum, pte **Frame)) {
	end := PageOf(start) + PageNum(pages)
	for p := PageOf(start); p < end; {
		m := as.FindMapping(VAddr(p) << PageShift)
		if m == nil {
			p++
			continue
		}
		for i := int(p - PageOf(m.Start)); i < len(m.ptes) && p < end; i, p = i+1, p+1 {
			fn(p, &m.ptes[i])
		}
	}
}

// eachFrame calls fn with every frame in the space and its page number, in
// address order.
func (as *AddressSpace) eachFrame(fn func(p PageNum, f *Frame)) {
	for _, m := range as.mappings {
		first := PageOf(m.Start)
		for i, f := range m.ptes {
			if f != nil {
				fn(first+PageNum(i), f)
			}
		}
	}
}

// overlap returns any mapping intersecting [lo,hi). The mappings slice is
// sorted by Start and non-overlapping, so the first candidate is the first
// mapping whose end lies past lo; it intersects iff it starts before hi.
func (as *AddressSpace) overlap(lo, hi VAddr) *Mapping {
	i := as.search(lo)
	if i > 0 && as.mappings[i-1].End() > lo {
		i--
	}
	if i < len(as.mappings) && as.mappings[i].Start < hi {
		return as.mappings[i]
	}
	return nil
}

// insert adds m, whose page table the caller has set, to the sorted index.
func (as *AddressSpace) insert(m *Mapping) {
	i := as.search(m.Start)
	as.mappings = append(as.mappings, nil)
	copy(as.mappings[i+1:], as.mappings[i:])
	as.mappings[i] = m
	as.starts = append(as.starts, 0)
	copy(as.starts[i+1:], as.starts[i:])
	as.starts[i] = m.Start
}

// Unmap removes the mapping that starts exactly at start and drops its page
// table. It returns an error if no such mapping exists.
func (as *AddressSpace) Unmap(start VAddr) error {
	i := as.search(start) - 1
	if i < 0 || as.starts[i] != start {
		return fmt.Errorf("mem: Unmap: no mapping at %#x", uint64(start))
	}
	m := as.mappings[i]
	if as.domain != nil {
		// Snapshot every frame the unmap is about to drop, then journal the
		// mapping so a discard can re-insert it.
		first := PageOf(m.Start)
		for j, f := range m.ptes {
			as.touch(first+PageNum(j), f)
		}
		as.domain.journal = append(as.domain.journal, mapUndo{kind: undoUnmap, m: m})
	}
	m.ptes = nil
	as.mappings = append(as.mappings[:i], as.mappings[i+1:]...)
	as.starts = append(as.starts[:i], as.starts[i+1:]...)
	return nil
}

// Grow extends mapping m by extra pages (used by the sbrk path). The mapping
// must belong to this address space — growing a stale pointer from before an
// Unmap, or a mapping of a different space, would corrupt the sorted
// non-overlapping invariant — and the new range must not collide with another
// mapping.
func (as *AddressSpace) Grow(m *Mapping, extra int) error {
	if extra <= 0 {
		return fmt.Errorf("mem: Grow %s: non-positive extra %d", m.Name, extra)
	}
	if i := as.search(m.Start); i == 0 || as.mappings[i-1] != m {
		return fmt.Errorf("mem: Grow %s: mapping [%#x,%#x) not owned by this address space",
			m.Name, uint64(m.Start), uint64(m.End()))
	}
	newEnd := m.End() + VAddr(extra)*PageSize
	if ov := as.overlap(m.End(), newEnd); ov != nil {
		return fmt.Errorf("mem: Grow %s: collides with %s", m.Name, ov.Name)
	}
	m.resize(m.Pages + extra)
	if as.domain != nil {
		as.domain.journal = append(as.domain.journal, mapUndo{kind: undoGrow, m: m, extra: extra})
	}
	return nil
}

// FindMapping returns the mapping containing addr, or nil. Only the last
// mapping starting at or below addr can contain it.
func (as *AddressSpace) FindMapping(addr VAddr) *Mapping {
	if i := as.search(addr); i > 0 {
		if m := as.mappings[i-1]; addr < m.End() {
			return m
		}
	}
	return nil
}

// Mappings returns the current mappings in address order. The returned slice
// is a copy; the *Mapping values are live.
func (as *AddressSpace) Mappings() []*Mapping {
	out := make([]*Mapping, len(as.mappings))
	copy(out, as.mappings)
	return out
}

// Mapped reports whether addr lies inside a mapping.
func (as *AddressSpace) Mapped(addr VAddr) bool { return as.FindMapping(addr) != nil }

// checkRange panics with a *Fault at the first unmapped byte of
// [addr, addr+n). It walks mapping by mapping, so contiguous adjacent
// mappings are accepted. Page-crossing accesses call it before touching any
// page, so a faulting access changes nothing.
func (as *AddressSpace) checkRange(addr VAddr, n int, op string) {
	end := addr + VAddr(n)
	for cur := addr; cur < end; {
		m := as.FindMapping(cur)
		if m == nil {
			panic(&Fault{Addr: cur, Op: op})
		}
		cur = m.End()
	}
}

// mustResolve is resolve for an access: it panics with a *Fault for op when
// addr is unmapped.
func (as *AddressSpace) mustResolve(addr VAddr, op string) **Frame {
	pte := as.resolve(addr)
	if pte == nil {
		panic(&Fault{Addr: addr, Op: op})
	}
	return pte
}

// onePage reports whether n bytes at addr stay inside addr's page. An
// access that does needs one lookup; any other takes the multi-page walk.
func onePage(addr VAddr, n int) bool { return int(addr%PageSize)+n <= PageSize }

// write returns the materialized data of page p, whose page-table slot is
// pte, for mutation: it logs the page into an open rewind domain, creates
// the frame on demand and stamps it with a fresh write generation. Every
// byte-mutating path funnels through it (Zero and DiscardDomain stamp
// explicitly), which is what makes PageGen a sound change detector.
func (as *AddressSpace) write(p PageNum, pte **Frame) []byte {
	f := *pte
	as.touch(p, f)
	if f == nil {
		f = &Frame{}
		*pte = f
	}
	as.stamp(f)
	return f.materialize()
}

// stamp assigns frame f a fresh write generation from this address space.
// Frames arriving from another address space (MovePages/CopyPages and their
// rollbacks) must be re-stamped: their old stamps were drawn from a different
// counter and could collide with generations this space already handed out.
func (as *AddressSpace) stamp(f *Frame) {
	as.writeGen++
	f.Gen = as.writeGen
}

// readPage copies bytes of f's page from addr's offset into buf, stopping
// at the page end, and returns how many it copied. A nil frame or one
// without data reads as zeros.
func readPage(f *Frame, addr VAddr, buf []byte) int {
	o := int(addr % PageSize)
	if f != nil && f.Data != nil {
		return copy(buf, f.Data[o:])
	}
	n := min(len(buf), PageSize-o)
	clear(buf[:n])
	return n
}

// ReadAt copies len(buf) bytes at addr into buf. It panics with *Fault if
// any byte of the range is unmapped (an empty read checks addr itself).
func (as *AddressSpace) ReadAt(addr VAddr, buf []byte) {
	if onePage(addr, len(buf)) {
		readPage(*as.mustResolve(addr, "read"), addr, buf)
		return
	}
	as.checkRange(addr, len(buf), "read")
	for off := 0; off < len(buf); {
		a := addr + VAddr(off)
		off += readPage(*as.resolve(a), a, buf[off:])
	}
}

// WriteAt copies buf into simulated memory at addr. It panics with *Fault if
// any byte of the range is unmapped (an empty write checks addr itself).
func (as *AddressSpace) WriteAt(addr VAddr, buf []byte) {
	if onePage(addr, len(buf)) {
		pte := as.mustResolve(addr, "write")
		if len(buf) > 0 {
			copy(as.write(PageOf(addr), pte)[addr%PageSize:], buf)
		}
		return
	}
	as.checkRange(addr, len(buf), "write")
	for off := 0; off < len(buf); {
		a := addr + VAddr(off)
		off += copy(as.write(PageOf(a), as.resolve(a))[a%PageSize:], buf[off:])
	}
}

// ReadBytes returns a fresh copy of n bytes at addr.
func (as *AddressSpace) ReadBytes(addr VAddr, n int) []byte {
	buf := make([]byte, n)
	as.ReadAt(addr, buf)
	return buf
}

// Zero writes n zero bytes at addr. A frame left entirely zero is released
// back to the unmaterialized state (the frame and its dirty bit remain), so
// large clears shrink the resident set instead of inflating the
// preserve/checksum working set with pages that read identically to untouched
// ones.
func (as *AddressSpace) Zero(addr VAddr, n int) {
	if onePage(addr, n) {
		pte := as.mustResolve(addr, "write")
		if n > 0 {
			as.zeroPage(*pte, addr, n)
		}
		return
	}
	as.checkRange(addr, n, "write")
	for off := 0; off < n; {
		a := addr + VAddr(off)
		off += as.zeroPage(*as.resolve(a), a, n-off)
	}
}

// zeroPage clears up to n bytes of f's page from addr's offset, stopping at
// the page end, and returns how many bytes it covered. A frame without data
// already reads as zeros and is left alone.
func (as *AddressSpace) zeroPage(f *Frame, addr VAddr, n int) int {
	o := int(addr % PageSize)
	n = min(n, PageSize-o)
	if f != nil && f.Data != nil {
		as.touch(PageOf(addr), f)
		as.stamp(f)
		d := f.materialize()
		clear(d[o : o+n])
		if allZero(d) {
			f.Data = nil
		}
	}
	return n
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// ReadU8 reads one byte at addr.
func (as *AddressSpace) ReadU8(addr VAddr) byte {
	f := *as.mustResolve(addr, "read")
	if f == nil || f.Data == nil {
		return 0
	}
	return f.Data[addr%PageSize]
}

// WriteU8 writes one byte at addr.
func (as *AddressSpace) WriteU8(addr VAddr, v byte) {
	as.write(PageOf(addr), as.mustResolve(addr, "write"))[addr%PageSize] = v
}

// ReadU64 reads a little-endian uint64 at addr (which may straddle pages).
func (as *AddressSpace) ReadU64(addr VAddr) uint64 {
	if !onePage(addr, 8) {
		var buf [8]byte
		as.ReadAt(addr, buf[:])
		return binary.LittleEndian.Uint64(buf[:])
	}
	f := *as.mustResolve(addr, "read")
	if f == nil || f.Data == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(f.Data[addr%PageSize:])
}

// WriteU64 writes a little-endian uint64 at addr (which may straddle pages).
func (as *AddressSpace) WriteU64(addr VAddr, v uint64) {
	if !onePage(addr, 8) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		as.WriteAt(addr, buf[:])
		return
	}
	d := as.write(PageOf(addr), as.mustResolve(addr, "write"))
	binary.LittleEndian.PutUint64(d[addr%PageSize:], v)
}

// ReadU32 reads a little-endian uint32 at addr.
func (as *AddressSpace) ReadU32(addr VAddr) uint32 {
	var buf [4]byte
	as.ReadAt(addr, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// WriteU32 writes a little-endian uint32 at addr.
func (as *AddressSpace) WriteU32(addr VAddr, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	as.WriteAt(addr, buf[:])
}

// ReadPtr reads a simulated pointer stored at addr.
func (as *AddressSpace) ReadPtr(addr VAddr) VAddr { return VAddr(as.ReadU64(addr)) }

// WritePtr stores a simulated pointer at addr.
func (as *AddressSpace) WritePtr(addr VAddr, p VAddr) { as.WriteU64(addr, uint64(p)) }

// MovePages transfers the frames of [start, start+pages*PageSize) from as
// into dst — the zero-copy PTE move at the heart of preserve_exec. The
// region must be fully covered by mappings in as; equivalent mappings are
// created in dst (which must have the range free), and the page-table
// entries move from the source tables into theirs. It returns the number of
// page-table entries moved (including entries for untouched zero pages).
func (as *AddressSpace) MovePages(dst *AddressSpace, start VAddr, pages int) (int, error) {
	end := start + VAddr(pages)*PageSize
	// Validate full coverage first so we fail atomically.
	for cur := start; cur < end; {
		m := as.FindMapping(cur)
		if m == nil {
			return 0, fmt.Errorf("mem: MovePages: unmapped address %#x", uint64(cur))
		}
		cur = m.End()
	}
	if ov := dst.overlap(start, end); ov != nil {
		return 0, fmt.Errorf("mem: MovePages: destination overlap with %s", ov.Name)
	}
	// Mirror each source mapping clipped to the range in dst, and move the
	// clipped part of its page table across.
	moved := 0
	for cur := start; cur < end; {
		m := as.FindMapping(cur)
		lo, hi := max(m.Start, start), min(m.End(), end)
		run := m.ptes[(lo-m.Start)>>PageShift : (hi-m.Start)>>PageShift]
		nm := &Mapping{Start: lo, Pages: len(run), Kind: m.Kind, Name: m.Name, ptes: make([]*Frame, len(run))}
		copy(nm.ptes, run)
		clear(run)
		for _, f := range nm.ptes {
			if f != nil {
				dst.stamp(f)
			}
		}
		dst.insert(nm)
		moved += len(run)
		cur = m.End()
	}
	return moved, nil
}

// UnmovePages reverses a MovePages call that transferred [start,
// start+pages*PageSize) from src into as: the frames are handed back to src —
// whose original mappings are still in place, since MovePages moves frames
// but never removes source mappings — and the mirror mappings MovePages
// created here are dropped. It is the kernel's rollback primitive for
// aborting a partially committed preserve_exec without leaving the dying
// process half-gutted.
func (as *AddressSpace) UnmovePages(src *AddressSpace, start VAddr, pages int) {
	end := start + VAddr(pages)*PageSize
	for _, m := range as.mappings {
		for a := max(m.Start, start); a < min(m.End(), end); a += PageSize {
			pte := &m.ptes[(a-m.Start)>>PageShift]
			if f := *pte; f != nil {
				src.stamp(f)
				if back := src.resolve(a); back != nil {
					*back = f
				}
				*pte = nil
			}
		}
	}
	n := 0
	for _, m := range as.mappings {
		if m.Start >= start && m.End() <= end {
			m.ptes = nil
			continue
		}
		as.mappings[n], as.starts[n] = m, m.Start
		n++
	}
	clear(as.mappings[n:])
	as.mappings, as.starts = as.mappings[:n], as.starts[:n]
}

// CopyPages forks [start, start+pages*PageSize) of as into dst, creating a
// single mapping there. Unlike MovePages the source keeps its frames: each
// page gets a fresh frame in dst that shares the source's buffer
// copy-on-write, so the fork copies no bytes and whichever side writes a
// page first copies it (the cross-check fork of §3.6). It returns how many
// resident pages the fork shares.
func (as *AddressSpace) CopyPages(dst *AddressSpace, start VAddr, pages int, kind Kind, name string) (int, error) {
	nm, err := dst.Map(start, pages, kind, name)
	if err != nil {
		return 0, err
	}
	shared := 0
	as.walk(start, pages, func(p PageNum, pte **Frame) {
		f := *pte
		if f == nil {
			return
		}
		// One frame at a time, not a slab: dst is a live space whose
		// pages may later move out one by one (MovePages), and a slab
		// would keep every frame of the mapping, with its buffer, alive
		// while any one of them survives.
		nf := new(Frame)
		*nf = f.fork() // the fork preserves tracking state, it is not a write
		dst.stamp(nf)  // but the generation is per-space: re-stamp on arrival
		if nf.Data != nil {
			shared++
		}
		nm.ptes[p-PageOf(start)] = nf
	})
	return shared, nil
}

// Clone returns a copy of the address space: mappings, page tables and
// frames are duplicated, and each frame shares its buffer with the
// original copy-on-write, so the copy is fully independent yet copies no
// page bytes up front. Used by CRIU-style full-process snapshots and
// restores. A clone's frames are born together, so each mapping's come
// from one slab.
func (as *AddressSpace) Clone() *AddressSpace {
	cp := &AddressSpace{
		mappings: make([]*Mapping, 0, len(as.mappings)),
		starts:   make([]VAddr, 0, len(as.starts)),
		ASLRBase: as.ASLRBase,
		writeGen: as.writeGen, // faithful snapshot: stamps stay valid as a set
	}
	for _, m := range as.mappings {
		nm := &Mapping{Start: m.Start, Pages: m.Pages, Kind: m.Kind, Name: m.Name, ptes: make([]*Frame, len(m.ptes))}
		n := 0
		for _, f := range m.ptes {
			if f != nil {
				n++
			}
		}
		slab := make([]Frame, n)
		for i, f := range m.ptes {
			if f != nil {
				slab[0] = f.fork()
				nm.ptes[i] = &slab[0]
				slab = slab[1:]
			}
		}
		// as.mappings is sorted, so appending keeps cp sorted.
		cp.mappings = append(cp.mappings, nm)
		cp.starts = append(cp.starts, nm.Start)
	}
	return cp
}

// FNV-1a (64-bit) is the checksum preserve_exec stamps into the preserve
// info block for every transferred frame: cheap enough to run at crash time,
// and any single bit flip in a page changes the sum.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Checksum returns the 64-bit FNV-1a hash of data.
func Checksum(data []byte) uint64 {
	sum := uint64(fnvOffset64)
	for _, b := range data {
		sum ^= uint64(b)
		sum *= fnvPrime64
	}
	return sum
}

// zeroPageChecksum is Checksum of one untouched (all-zero) page, precomputed
// so checksumming sparse preserved ranges never materializes their frames.
var zeroPageChecksum = Checksum(make([]byte, PageSize))

// PageChecksum returns the FNV-1a checksum of page p's current contents.
// Unmaterialized frames (and unmapped pages) read as zeros, matching what
// ReadAt would observe.
func (as *AddressSpace) PageChecksum(p PageNum) uint64 {
	if f := as.frameAt(p); f != nil && f.Data != nil {
		return Checksum(f.Data)
	}
	return zeroPageChecksum
}

// FlipBit inverts one bit of the byte at addr, materializing the frame if
// needed. It is the corruption primitive behind the kernel.preserve.corrupt
// fault-injection site: a simulated hardware/DMA bit flip that bypasses the
// store instrumentation application code routes through. It still sets the
// frame's soft-dirty bit — soft-dirty is an MMU property, not an
// instrumentation property — which is what lets delta checksums catch flips
// in pages the application never wrote: a "clean" page whose content changed
// is by definition corrupted, and it must re-enter the checksum walk.
func (as *AddressSpace) FlipBit(addr VAddr, bit uint) {
	as.write(PageOf(addr), as.mustResolve(addr, "write"))[addr%PageSize] ^= 1 << (bit % 8)
}

// PageGen returns page p's write-generation stamp; 0 means the page has
// never been mutated in this address space (it reads as zeros, or carries a
// pre-stamp snapshot). Equal stamps across two observations of the same
// address space guarantee the page's bytes did not change in between; a
// changed stamp says only that they may have. Migration delta rounds scan
// stamps (cheap) and re-hash only stamp-changed pages (expensive), so round
// cost tracks the write rate, not the shard size.
func (as *AddressSpace) PageGen(p PageNum) uint64 {
	if f := as.frameAt(p); f != nil {
		return f.Gen
	}
	return 0
}

// PageDirty reports whether page p carries a set soft-dirty bit.
func (as *AddressSpace) PageDirty(p PageNum) bool {
	f := as.frameAt(p)
	return f != nil && f.Dirty
}

// PageResident reports whether page p has materialized data. A non-resident
// page reads as zeros and checksums as the zero page in O(1).
func (as *AddressSpace) PageResident(p PageNum) bool {
	f := as.frameAt(p)
	return f != nil && f.Data != nil
}

// DirtyPages returns the number of dirty pages.
func (as *AddressSpace) DirtyPages() int {
	n := 0
	as.eachFrame(func(_ PageNum, f *Frame) {
		if f.Dirty {
			n++
		}
	})
	return n
}

// DirtyPagesIn returns how many pages of [start, start+pages*PageSize) are
// dirty.
func (as *AddressSpace) DirtyPagesIn(start VAddr, pages int) int {
	n := 0
	as.walk(start, pages, func(_ PageNum, pte **Frame) {
		if f := *pte; f != nil && f.Dirty {
			n++
		}
	})
	return n
}

// DirtySetIn returns the dirty pages of [start, start+pages*PageSize) in
// ascending order. A clean range returns nil — not a zero-length allocated
// slice — so the hot preserve loop and rewind-domain entry produce no garbage
// when there is nothing to report.
func (as *AddressSpace) DirtySetIn(start VAddr, pages int) []PageNum {
	var out []PageNum
	as.walk(start, pages, func(p PageNum, pte **Frame) {
		if f := *pte; f != nil && f.Dirty {
			out = append(out, p)
		}
	})
	return out
}

// ClearDirty clears the soft-dirty bits of [start, start+pages*PageSize).
// Only the preservation machinery may call it, and only after a verified
// commit: clearing establishes "content matches the recorded checksums" as
// the new baseline, so clearing without having recorded (and verified) the
// content breaks the delta-checksum invariant.
func (as *AddressSpace) ClearDirty(start VAddr, pages int) {
	as.walk(start, pages, func(_ PageNum, pte **Frame) {
		if f := *pte; f != nil {
			f.Dirty = false
		}
	})
}

// ResidentPages returns the number of frames with materialized data.
func (as *AddressSpace) ResidentPages() int {
	n := 0
	as.eachFrame(func(_ PageNum, f *Frame) {
		if f.Data != nil {
			n++
		}
	})
	return n
}

// MappedPages returns the total number of mapped pages.
func (as *AddressSpace) MappedPages() int {
	n := 0
	for _, m := range as.mappings {
		n += m.Pages
	}
	return n
}

// MappedBytes returns the total mapped size in bytes.
func (as *AddressSpace) MappedBytes() int64 { return int64(as.MappedPages()) * PageSize }
