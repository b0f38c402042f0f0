// Package mem is the fixture mirror of the frame-backed address space, laid
// out so each dirty-bit hazard class appears exactly once, with a clean
// funnel-using counterpart beside it.
package mem

const PageSize = 64

type Frame struct {
	Data  []byte
	Dirty bool
	Gen   uint64
}

type AddressSpace struct {
	frames map[uint64]*Frame
	gen    uint64
}

func New() *AddressSpace {
	return &AddressSpace{frames: map[uint64]*Frame{}}
}

// materialize is the tracking funnel: every legal write path goes through it.
func (a *AddressSpace) materialize(page uint64) *Frame {
	f := a.frames[page]
	if f == nil {
		f = &Frame{Data: make([]byte, PageSize)}
		a.frames[page] = f
	}
	f.Dirty = true
	return f
}

// write stamps the generation after materializing.
func (a *AddressSpace) write(addr uint64, b byte) {
	f := a.materialize(addr / PageSize)
	a.gen++
	f.Gen = a.gen
	f.Data[addr%PageSize] = b
}

// WriteU8 is the clean exported write path.
func (a *AddressSpace) WriteU8(addr uint64, b byte) { a.write(addr, b) }

// DirtyPages counts dirty frames (a bulk per-page walk).
func (a *AddressSpace) DirtyPages() int {
	n := 0
	for _, f := range a.frames {
		if f.Dirty {
			n++
		}
	}
	return n
}

// CopyPages is a bulk per-page transfer; the Frame literal with an explicit
// Dirty field is its tracking evidence.
func (a *AddressSpace) CopyPages(from *AddressSpace) {
	for page, f := range from.frames {
		nf := &Frame{Data: append([]byte(nil), f.Data...), Dirty: true, Gen: f.Gen}
		a.frames[page] = nf
	}
}

// PokeRaw is the indexed-write mutant: it mutates frame bytes with no
// materialize/dirty evidence anywhere in the function.
func (a *AddressSpace) PokeRaw(addr uint64, b byte) {
	f := a.frames[addr/PageSize]
	f.Data[addr%PageSize] = b
}

// BlastCopy is the copy-destination mutant, via a locally derived buffer.
func (a *AddressSpace) BlastCopy(page uint64, src []byte) {
	f := a.frames[page]
	d := f.Data
	copy(d, src)
}

// SwapData is the buffer-replacement mutant: the frame keeps its stale Gen.
func (a *AddressSpace) SwapData(page uint64, buf []byte) {
	f := a.frames[page]
	f.Data = buf
}

// stamp assigns a fresh write generation: tracking evidence, but it copies
// nothing.
func (a *AddressSpace) stamp(f *Frame) {
	a.gen++
	f.Gen = a.gen
}

// ZeroRaw is the stale-evidence mutant: it marks the frame dirty and stamps
// it, yet clears the buffer in place, so a buffer shared copy-on-write with
// a frozen copy changes under that copy.
func (a *AddressSpace) ZeroRaw(page uint64) {
	f := a.frames[page]
	clear(f.Data)
	f.Dirty = true
	a.stamp(f)
}

// BumpRaw is the increment mutant: a read-modify-write of a frame byte with
// no evidence anywhere in the function.
func (a *AddressSpace) BumpRaw(addr uint64) {
	f := a.frames[addr/PageSize]
	f.Data[addr%PageSize]++
}
