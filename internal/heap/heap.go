// Package heap implements the simulated malloc the PHOENIX reproduction's
// applications allocate from.
//
// It mirrors the glibc structure the paper instruments (§3.3, Figure 4):
//
//   - small objects come from arenas — the first arena sits on a growable
//     brk (data-segment) mapping, additional arenas are mmap-backed;
//   - large objects get dedicated mmap regions;
//   - the mark-and-sweep cleanup of §3.4 marks reachable chunks and frees
//     the rest.
//
// Crucially, *all persistent allocator metadata lives inside simulated
// memory*: the root header, the arena list, the chunk size words, the free
// lists (threaded through free chunk bodies), and the large-region list.
// After a PHOENIX restart preserves the heap pages, Attach reconstructs a
// working allocator from that memory alone — "malloc regains control of the
// preserved heap" (§3.2 step 6).
//
// The one exception is the PHOENIX marker. glibc keeps it as a bit in each
// chunk header; here it is a transient side bitmap owned by the recovering
// incarnation's Heap, allocated by the first Mark, dropped by Collect, and
// never preserved. Mark state never has to outlive a restart, and keeping it
// off the heap pages means a cleanup pass leaves the retained pages clean,
// so the next preserve_exec reuses their cached checksums.
//
// The allocator is segregated-storage: freed chunks return to a per-size-
// class free list and are reused for the same class; there is no coalescing.
// The classes follow glibc's spacing: 16 bytes apart from 32 through 1,024
// bytes, the range glibc's tcache and small bins serve, then 1.5, 2, 3, 4, 8,
// 16 and 32 KiB and one class for chunks up to the mmap threshold. A chunk is
// glibc's in-use layout: an 8-byte size word, then the payload, which starts
// 8-aligned (chunks start 16-aligned). A free chunk keeps its free-list link
// in its first payload word. So a request of n ≤ 1,016 bytes takes glibc's
// request2size chunk, max(32, (n+8+15) &^ 15) bytes, with 8 fewer usable.
// glibc's internal consistency checks are modelled: freeing an invalid or
// corrupted pointer aborts (SIGABRT), which is how the paper's MongoDB
// buffer-overrun case is caught.
package heap

import (
	"fmt"

	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
)

const (
	rootMagic  = 0x5048_4E58_4845_4150 // "PHNXHEAP"
	arenaMagic = 0x5048_4E58_4152_454E // "PHNXAREN"
	largeMagic = 0x5048_4E58_4C41_5247 // "PHNXLARG"

	chunkHeader = 8
	arenaHdr    = 640
	largeHdr    = 32

	// Flag bits stored in the low bits of the chunk-size word (sizes are
	// 8-aligned so three bits are free; bit 1, glibc's PHOENIX marker, is
	// unused because the marker lives in Heap.marks).
	flagInUse = 1 << 0
	flagLarge = 1 << 2
	flagMask  = 7

	// markGrain is the address span one marker bit covers. Every chunk starts
	// 16-aligned, so no two chunk starts share a span.
	markGrain = 16

	// MmapThreshold is the payload size at or above which allocations get a
	// dedicated mmap region.
	MmapThreshold = 64 << 10

	// DefaultArenaSize is the size of each mmap-backed arena.
	DefaultArenaSize = 1 << 20

	// DefaultBrkMax is the reserved growth limit of the brk arena.
	DefaultBrkMax = 4 << 20
)

// Root-header field offsets (within arena 0, after the arena fields).
const (
	offArenaMagic = 0
	offArenaNext  = 8
	offArenaBump  = 16 // u32
	offArenaSize  = 20 // u32
	offRootMagic  = 24
	offLargeHead  = 32
	offNextMap    = 40
	offLiveBytes  = 48
	offLiveChunks = 56
	offFreeHeads  = 64 // numClasses * 8 bytes
)

// Size-class geometry. glibc's tcache and small bins space chunks 16 bytes
// apart up to about 1 KiB; the classes follow that spacing from minChunk
// through smallMax, then a coarse tail reaches the mmap threshold. Every
// class is a multiple of 16, so every chunk starts 16-aligned.
const (
	minChunk   = 32
	classStep  = 16
	smallMax   = 1024
	numSmall   = (smallMax-minChunk)/classStep + 1
	numClasses = numSmall + 8
)

// classSizes are the chunk sizes (header + payload) served from arenas. The
// last one holds any arena request below MmapThreshold and stays a multiple
// of 16.
var classSizes = func() []int {
	s := make([]int, 0, numClasses)
	for c := minChunk; c <= smallMax; c += classStep {
		s = append(s, c)
	}
	return append(s, 1536, 2048, 3072, 4096, 8192, 16384, 32768, 65552)
}()

func init() {
	if len(classSizes) != numClasses {
		panic("heap: class table size mismatch")
	}
	if offFreeHeads+numClasses*8 > arenaHdr {
		panic("heap: root header overflow")
	}
}

// classFor returns the class index serving a chunk of at least n bytes
// (header included), or -1 if n exceeds the largest class. Up to smallMax
// the index is arithmetic, so Alloc's common sizes cost no table scan.
func classFor(n int) int {
	if n <= smallMax {
		if n <= minChunk {
			return 0
		}
		return (n - minChunk + classStep - 1) / classStep
	}
	for i := numSmall; i < numClasses; i++ {
		if n <= classSizes[i] {
			return i
		}
	}
	return -1
}

// Options configures a new heap region.
type Options struct {
	// ArenaSize overrides DefaultArenaSize.
	ArenaSize int
	// BrkMax overrides DefaultBrkMax (growth limit of the brk arena).
	BrkMax int
	// Name tags the heap's mappings (useful when multiple PhxAllocators
	// coexist).
	Name string
}

func (o *Options) fill() {
	if o.ArenaSize == 0 {
		o.ArenaSize = DefaultArenaSize
	}
	if o.BrkMax == 0 {
		o.BrkMax = DefaultBrkMax
	}
	if o.Name == "" {
		o.Name = "heap"
	}
	if o.ArenaSize%mem.PageSize != 0 || o.BrkMax%mem.PageSize != 0 {
		panic("heap: arena sizes must be page multiples")
	}
}

// Heap is one allocator region. The Go-side struct is a thin cursor over
// state held in simulated memory; it can be dropped and rebuilt with Attach.
type Heap struct {
	as   *mem.AddressSpace
	base mem.VAddr // arena 0 == root
	opts Options

	// marks is the PHOENIX marker set of the current cleanup: one bit per
	// markGrain slot of the heap's address span, counted from base. It is
	// Go memory, not simulated memory, so marking dirties no heap page; the
	// first Mark allocates it and Collect drops it.
	marks []uint64
}

// New creates a heap whose brk arena starts at base (page aligned) with one
// initial page, writing the root header into simulated memory.
func New(as *mem.AddressSpace, base mem.VAddr, opts Options) (*Heap, error) {
	opts.fill()
	h := &Heap{as: as, base: base, opts: opts}
	if _, err := as.Map(base, 1, mem.KindBrk, opts.Name+".brk"); err != nil {
		return nil, err
	}
	// Arena 0 header.
	as.WriteU64(base+offArenaMagic, arenaMagic)
	as.WritePtr(base+offArenaNext, mem.NullPtr)
	as.WriteU32(base+offArenaBump, arenaHdr)
	as.WriteU32(base+offArenaSize, mem.PageSize)
	// Root fields.
	as.WriteU64(base+offRootMagic, rootMagic)
	as.WritePtr(base+offLargeHead, mem.NullPtr)
	as.WritePtr(base+offNextMap, base+mem.VAddr(opts.BrkMax))
	as.WriteU64(base+offLiveBytes, 0)
	as.WriteU64(base+offLiveChunks, 0)
	for i := 0; i < numClasses; i++ {
		as.WritePtr(base+offFreeHeads+mem.VAddr(i*8), mem.NullPtr)
	}
	return h, nil
}

// Attach reconstructs a Heap from preserved simulated memory. It validates
// the root magic and returns an error if the memory at base is not a heap
// root (e.g. the pages were not preserved).
func Attach(as *mem.AddressSpace, base mem.VAddr, opts Options) (*Heap, error) {
	opts.fill()
	if !as.Mapped(base) {
		return nil, fmt.Errorf("heap: attach at %#x: unmapped", uint64(base))
	}
	if as.ReadU64(base+offRootMagic) != rootMagic {
		return nil, fmt.Errorf("heap: attach at %#x: bad root magic", uint64(base))
	}
	return &Heap{as: as, base: base, opts: opts}, nil
}

// Base returns the heap root address.
func (h *Heap) Base() mem.VAddr { return h.base }

// AS returns the address space the heap allocates from.
func (h *Heap) AS() *mem.AddressSpace { return h.as }

func (h *Heap) abort(format string, args ...interface{}) {
	panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "malloc: " + fmt.Sprintf(format, args...)})
}

// mappedBytes returns total bytes currently mapped by this heap.
func (h *Heap) mappedBytes() int64 {
	var total int64
	for a := h.base; a != mem.NullPtr; a = h.as.ReadPtr(a + offArenaNext) {
		total += int64(h.as.ReadU32(a + offArenaSize))
	}
	for l := h.as.ReadPtr(h.base + offLargeHead); l != mem.NullPtr; l = h.as.ReadPtr(l + 8) {
		total += int64(h.as.ReadU64(l + 16))
	}
	return total
}

// Alloc allocates n payload bytes and returns the payload address, or
// NullPtr if no mapping can be made for it. The payload is NOT zeroed when the
// chunk is recycled from a free list — like malloc, stale contents leak
// through, which matters for the uninitialized-variable fault type.
func (h *Heap) Alloc(n int) mem.VAddr {
	if n <= 0 {
		n = 1
	}
	need := (n + chunkHeader + 7) &^ 7
	if need >= MmapThreshold {
		return h.allocLarge(n)
	}
	ci := classFor(need)
	size := classSizes[ci]

	// Fast path: recycle from the free list. The link is the payload's
	// first word; it is cleared, and the rest of the payload stays stale.
	headAddr := h.base + offFreeHeads + mem.VAddr(ci*8)
	if c := h.as.ReadPtr(headAddr); c != mem.NullPtr {
		p := c + chunkHeader
		h.as.WritePtr(headAddr, h.as.ReadPtr(p))
		h.as.WriteU64(c, uint64(size)|flagInUse)
		h.as.WriteU64(p, 0)
		h.addLive(1, int64(size))
		return p
	}

	// Bump-allocate from an arena with room.
	for a := h.base; a != mem.NullPtr; a = h.as.ReadPtr(a + offArenaNext) {
		if c := h.bumpFrom(a, size); c != mem.NullPtr {
			h.addLive(1, int64(size))
			return c + chunkHeader
		}
	}
	// Grow the brk arena if possible, else map a new arena.
	if h.growBrk(size) {
		if c := h.bumpFrom(h.base, size); c != mem.NullPtr {
			h.addLive(1, int64(size))
			return c + chunkHeader
		}
	}
	a := h.newArena()
	if a == mem.NullPtr {
		return mem.NullPtr
	}
	c := h.bumpFrom(a, size)
	if c == mem.NullPtr {
		h.abort("fresh arena cannot satisfy class %d", size)
	}
	h.addLive(1, int64(size))
	return c + chunkHeader
}

// bumpFrom tries to carve size bytes from arena a's bump region.
func (h *Heap) bumpFrom(a mem.VAddr, size int) mem.VAddr {
	bump := int(h.as.ReadU32(a + offArenaBump))
	asize := int(h.as.ReadU32(a + offArenaSize))
	if bump+size > asize {
		return mem.NullPtr
	}
	c := a + mem.VAddr(bump)
	h.as.WriteU32(a+offArenaBump, uint32(bump+size))
	h.as.WriteU64(c, uint64(size)|flagInUse)
	h.as.WriteU64(c+chunkHeader, 0) // the first payload word, as on recycling
	return c
}

// growBrk extends the brk arena by at least need bytes (page-rounded),
// respecting BrkMax. It reports whether the arena grew.
func (h *Heap) growBrk(need int) bool {
	asize := int(h.as.ReadU32(h.base + offArenaSize))
	if asize >= h.opts.BrkMax {
		return false
	}
	grow := mem.PagesFor(need)
	// Grow geometrically to amortise, capped at BrkMax.
	if doubled := asize / mem.PageSize; doubled > grow {
		grow = doubled
	}
	if asize+grow*mem.PageSize > h.opts.BrkMax {
		grow = (h.opts.BrkMax - asize) / mem.PageSize
	}
	if grow <= 0 {
		return false
	}
	m := h.as.FindMapping(h.base)
	if m == nil {
		h.abort("brk arena mapping lost")
	}
	if err := h.as.Grow(m, grow); err != nil {
		return false
	}
	h.as.WriteU32(h.base+offArenaSize, uint32(asize+grow*mem.PageSize))
	return true
}

// newArena maps a fresh mmap arena and links it into the arena list.
func (h *Heap) newArena() mem.VAddr {
	size := h.opts.ArenaSize
	a := h.as.ReadPtr(h.base + offNextMap)
	if _, err := h.as.Map(a, size/mem.PageSize, mem.KindMmap, h.opts.Name+".arena"); err != nil {
		return mem.NullPtr
	}
	h.as.WritePtr(h.base+offNextMap, a+mem.VAddr(size))
	h.as.WriteU64(a+offArenaMagic, arenaMagic)
	h.as.WriteU32(a+offArenaBump, arenaHdr)
	h.as.WriteU32(a+offArenaSize, uint32(size))
	// Push onto the arena list after the root arena.
	next := h.as.ReadPtr(h.base + offArenaNext)
	h.as.WritePtr(a+offArenaNext, next)
	h.as.WritePtr(h.base+offArenaNext, a)
	return a
}

// allocLarge maps a dedicated region for an allocation of n payload bytes.
// Layout: [largeHdr][size word][payload...].
func (h *Heap) allocLarge(n int) mem.VAddr {
	total := largeHdr + chunkHeader + n
	pages := mem.PagesFor(total)
	size := pages * mem.PageSize
	l := h.as.ReadPtr(h.base + offNextMap)
	if _, err := h.as.Map(l, pages, mem.KindMmap, h.opts.Name+".large"); err != nil {
		return mem.NullPtr
	}
	h.as.WritePtr(h.base+offNextMap, l+mem.VAddr(size))
	h.as.WriteU64(l, largeMagic)
	// Link into large list: next ptr at +8, region size at +16.
	h.as.WritePtr(l+8, h.as.ReadPtr(h.base+offLargeHead))
	h.as.WriteU64(l+16, uint64(size))
	h.as.WritePtr(h.base+offLargeHead, l)
	c := l + largeHdr
	h.as.WriteU64(c, uint64(size-largeHdr)|flagInUse|flagLarge)
	h.as.WriteU64(c+chunkHeader, 0)
	h.addLive(1, int64(size-largeHdr))
	return c + chunkHeader
}

func (h *Heap) addLive(chunks int64, bytes int64) {
	h.as.WriteU64(h.base+offLiveChunks, uint64(int64(h.as.ReadU64(h.base+offLiveChunks))+chunks))
	h.as.WriteU64(h.base+offLiveBytes, uint64(int64(h.as.ReadU64(h.base+offLiveBytes))+bytes))
}

// chunkOf validates that p is a live payload pointer and returns its chunk
// address and size word, aborting (SIGABRT) on corruption — modelling
// glibc's integrity checks.
func (h *Heap) chunkOf(p mem.VAddr, op string) (c mem.VAddr, sizeWord uint64) {
	if p == mem.NullPtr {
		h.abort("%s(nil)", op)
	}
	c = p - chunkHeader
	if !h.as.Mapped(c) {
		h.abort("%s(%#x): pointer outside heap", op, uint64(p))
	}
	sizeWord = h.as.ReadU64(c)
	size := int(sizeWord &^ flagMask)
	if size < minChunk || size%8 != 0 || size > 1<<40 {
		h.abort("%s(%#x): corrupted chunk size %#x", op, uint64(p), sizeWord)
	}
	if sizeWord&flagInUse == 0 {
		h.abort("%s(%#x): double free or invalid pointer", op, uint64(p))
	}
	return c, sizeWord
}

// Free releases the allocation at payload pointer p.
func (h *Heap) Free(p mem.VAddr) { h.free(p) }

// free releases the allocation at p and returns its chunk size.
func (h *Heap) free(p mem.VAddr) int {
	c, sizeWord := h.chunkOf(p, "free")
	size := int(sizeWord &^ flagMask)
	h.unmark(c)
	if sizeWord&flagLarge != 0 {
		h.freeLarge(c, size)
		return size
	}
	ci := classFor(size)
	if ci < 0 || classSizes[ci] != size {
		h.abort("free(%#x): chunk size %d not a size class", uint64(p), size)
	}
	headAddr := h.base + offFreeHeads + mem.VAddr(ci*8)
	h.as.WriteU64(c, uint64(size)) // clear in-use and marker
	h.as.WritePtr(p, h.as.ReadPtr(headAddr))
	h.as.WritePtr(headAddr, c)
	h.addLive(-1, -int64(size))
	return size
}

// freeLarge unlinks and unmaps a large region given its chunk address.
func (h *Heap) freeLarge(c mem.VAddr, size int) {
	l := c - largeHdr
	if h.as.ReadU64(l) != largeMagic {
		h.abort("free large(%#x): corrupted region header", uint64(c))
	}
	// Unlink from the large list.
	prev := h.base + offLargeHead
	for cur := h.as.ReadPtr(prev); cur != mem.NullPtr; cur = h.as.ReadPtr(prev) {
		if cur == l {
			h.as.WritePtr(prev, h.as.ReadPtr(cur+8))
			if err := h.as.Unmap(l); err != nil {
				h.abort("free large: %v", err)
			}
			h.addLive(-1, -int64(size))
			return
		}
		prev = cur + 8
	}
	h.abort("free large(%#x): region not in list", uint64(c))
}

// UsableSize returns the payload capacity of the allocation at p.
func (h *Heap) UsableSize(p mem.VAddr) int {
	_, sizeWord := h.chunkOf(p, "usable_size")
	return int(sizeWord&^flagMask) - chunkHeader
}

// Mark sets the PHOENIX marker on the allocation at p — the phx_mark_used
// step of the developer's traversal (§3.4).
func (h *Heap) Mark(p mem.VAddr) {
	c, _ := h.chunkOf(p, "mark")
	w, bit := h.markBit(c)
	if w >= len(h.marks) {
		h.growMarks(c)
	}
	h.marks[w] |= bit
}

// Marked reports whether the allocation at p carries the marker.
func (h *Heap) Marked(p mem.VAddr) bool {
	c, _ := h.chunkOf(p, "marked")
	return h.marked(c)
}

// markBit locates chunk c's marker: its word in h.marks and its bit there.
// An address below base wraps to a word past any marker set.
func (h *Heap) markBit(c mem.VAddr) (int, uint64) {
	slot := uint64(c-h.base) / markGrain
	return int(slot / 64), 1 << (slot % 64)
}

// growMarks extends the marker set to cover the heap's whole address span,
// which Mark needs for chunk c when the set is new or the heap has mapped
// past it.
func (h *Heap) growMarks(c mem.VAddr) {
	end := h.as.ReadPtr(h.base + offNextMap)
	if c < h.base || c >= end {
		h.abort("mark(%#x): chunk outside heap", uint64(c+chunkHeader))
	}
	grown := make([]uint64, uint64(end-h.base)/markGrain/64+1)
	copy(grown, h.marks)
	h.marks = grown
}

func (h *Heap) marked(c mem.VAddr) bool {
	w, bit := h.markBit(c)
	return w < len(h.marks) && h.marks[w]&bit != 0
}

// unmark clears chunk c's marker, so a freed chunk is never handed out again
// already marked.
func (h *Heap) unmark(c mem.VAddr) {
	if w, bit := h.markBit(c); w < len(h.marks) {
		h.marks[w] &^= bit
	}
}

// Collect is the walk half of the phx_finish_recovery cleanup (§3.4): it
// returns the payload of every in-use chunk without the marker, in walk
// order, with the number of chunks visited, and drops the marker set. It
// reads the heap and writes nothing, so it can run against a fork of the
// heap while the heap itself keeps serving; FreeAll frees the result later.
// A chunk left unmarked by a traversal from the recovery roots is
// unreachable, and stays so: nothing allocated or freed after Collect can
// enter the set.
func (h *Heap) Collect() (garbage []mem.VAddr, visited int) {
	h.Walk(func(payload mem.VAddr, _ int, inUse, marked bool) bool {
		visited++
		if inUse && !marked {
			garbage = append(garbage, payload)
		}
		return true
	})
	h.marks = nil
	return garbage, visited
}

// FreeAll frees every allocation in garbage, in order, and returns how many
// chunks and chunk bytes it released. A pointer that is no longer a live
// chunk aborts (SIGABRT), as Free does.
func (h *Heap) FreeAll(garbage []mem.VAddr) (chunks int, bytes int64) {
	for _, p := range garbage {
		bytes += int64(h.free(p))
	}
	return len(garbage), bytes
}

// Sweep frees every in-use chunk without the marker and drops the marker
// set: Collect, then FreeAll. The returned visit count is the per-chunk
// work the walk did.
func (h *Heap) Sweep() (freedChunks int, freedBytes int64, visited int) {
	garbage, visited := h.Collect()
	freedChunks, freedBytes = h.FreeAll(garbage)
	return freedChunks, freedBytes, visited
}

// Walk visits every chunk (in-use and free) in the heap. size is the full
// chunk size including header. Return false from fn to stop early. fn may
// free the chunk it is handed: Walk has already read what it needs to move on.
func (h *Heap) Walk(fn func(payload mem.VAddr, size int, inUse, marked bool) bool) {
	for a := h.base; a != mem.NullPtr; a = h.as.ReadPtr(a + offArenaNext) {
		bump := int(h.as.ReadU32(a + offArenaBump))
		off := arenaHdr
		for off < bump {
			c := a + mem.VAddr(off)
			sizeWord := h.as.ReadU64(c)
			size := int(sizeWord &^ flagMask)
			if size < minChunk || size%8 != 0 {
				h.abort("walk: corrupted chunk at %#x (size word %#x)", uint64(c), sizeWord)
			}
			if !fn(c+chunkHeader, size, sizeWord&flagInUse != 0, h.marked(c)) {
				return
			}
			off += size
		}
	}
	for l := h.as.ReadPtr(h.base + offLargeHead); l != mem.NullPtr; {
		next := h.as.ReadPtr(l + 8) // before fn can unmap l
		c := l + largeHdr
		sizeWord := h.as.ReadU64(c)
		size := int(sizeWord &^ flagMask)
		if !fn(c+chunkHeader, size, sizeWord&flagInUse != 0, h.marked(c)) {
			return
		}
		l = next
	}
}

// Stats reports allocator accounting.
type Stats struct {
	LiveChunks  int64
	LiveBytes   int64 // chunk bytes including headers
	MappedBytes int64
	Arenas      int
	LargeRegs   int
}

// Stats returns a snapshot of allocator accounting read from simulated
// memory.
func (h *Heap) Stats() Stats {
	s := Stats{
		LiveChunks:  int64(h.as.ReadU64(h.base + offLiveChunks)),
		LiveBytes:   int64(h.as.ReadU64(h.base + offLiveBytes)),
		MappedBytes: h.mappedBytes(),
	}
	for a := h.base; a != mem.NullPtr; a = h.as.ReadPtr(a + offArenaNext) {
		s.Arenas++
	}
	for l := h.as.ReadPtr(h.base + offLargeHead); l != mem.NullPtr; l = h.as.ReadPtr(l + 8) {
		s.LargeRegs++
	}
	return s
}

// PreservedRanges returns the page ranges of every mapping belonging to this
// heap — what phx_restart's with_heap (or a PhxAllocator's managed ranges)
// hands to preserve_exec.
func (h *Heap) PreservedRanges() []linker.Range {
	var out []linker.Range
	// Brk arena.
	if m := h.as.FindMapping(h.base); m != nil {
		out = append(out, linker.Range{Start: m.Start, Len: m.Len()})
	}
	// Mmap arenas.
	for a := h.as.ReadPtr(h.base + offArenaNext); a != mem.NullPtr; a = h.as.ReadPtr(a + offArenaNext) {
		size := int(h.as.ReadU32(a + offArenaSize))
		out = append(out, linker.Range{Start: a, Len: size})
	}
	// Large regions.
	for l := h.as.ReadPtr(h.base + offLargeHead); l != mem.NullPtr; l = h.as.ReadPtr(l + 8) {
		size := int(h.as.ReadU64(l + 16))
		out = append(out, linker.Range{Start: l, Len: size})
	}
	return out
}
