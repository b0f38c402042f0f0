package mem

import "fmt"

// Rewind domains give one request a byte-exact undo log over the address
// space, riding the soft-dirty infrastructure: while a domain is open, the
// first write to each page snapshots the page's pre-image and its prior
// dirty bit copy-on-write (an untouched page needs no snapshot — its bytes
// and tracking state are trivially unchanged, which is why lazy first-touch
// capture subsumes an eager dirty-set snapshot at domain entry).
// DiscardDomain restores every touched page — content, residency, and
// soft-dirty bit — so a faulting request rolls back exactly, including the
// delta-checksum baseline: a page that was clean before the request is clean
// again after the discard, and its restored bytes are the ones the cached
// checksum was verified against.
//
// Domains are a request-scoped, single-owner primitive: one domain per
// address space, never open across a preserve_exec (the driver closes it
// before any process-level restart).

// domainRecord is the pre-image of one touched page.
type domainRecord struct {
	// data is a copy of the frame's bytes at first touch; nil when the frame
	// was unmaterialized (read as zeros).
	data []byte
	// dirty is the frame's soft-dirty bit at first touch.
	dirty bool
	// existed reports whether the page had a frame at all; when false,
	// discard clears the page-table slot instead of restoring into it.
	existed bool
}

// mapUndoKind tags one journaled mapping-level operation.
type mapUndoKind int

const (
	// undoMap records a Map performed inside the domain: discard unmaps it.
	undoMap mapUndoKind = iota
	// undoUnmap records an Unmap performed inside the domain: discard
	// re-inserts the mapping (its frames are restored by the page records —
	// Unmap touches every dropped page into the undo log first).
	undoUnmap
	// undoGrow records a Grow performed inside the domain: discard shrinks
	// the mapping back, truncating its page table.
	undoGrow
)

// mapUndo is one journaled mapping-level operation.
type mapUndo struct {
	kind  mapUndoKind
	m     *Mapping
	extra int
}

// rewindDomain is the open domain's undo log: per-page pre-images plus a
// journal of mapping-level operations (heap growth maps new arenas and frees
// unmap large regions mid-request; rolling back the heap metadata without
// rolling back the mappings would leave the two out of sync).
type rewindDomain struct {
	pages   map[PageNum]domainRecord
	journal []mapUndo
}

// BeginRewindDomain opens a rewind domain. Only one may be open at a time.
func (as *AddressSpace) BeginRewindDomain() error {
	if as.domain != nil {
		return fmt.Errorf("mem: BeginRewindDomain: a domain is already open")
	}
	as.domain = &rewindDomain{pages: make(map[PageNum]domainRecord)}
	return nil
}

// DomainActive reports whether a rewind domain is open.
func (as *AddressSpace) DomainActive() bool { return as.domain != nil }

// DomainTouched returns how many pages the open domain has snapshotted.
func (as *AddressSpace) DomainTouched() int {
	if as.domain == nil {
		return 0
	}
	return len(as.domain.pages)
}

// CommitDomain closes the domain keeping every write, dropping the undo log.
// It returns the number of pages the domain had touched.
func (as *AddressSpace) CommitDomain() (int, error) {
	if as.domain == nil {
		return 0, fmt.Errorf("mem: CommitDomain: no open domain")
	}
	n := len(as.domain.pages)
	as.domain = nil
	return n, nil
}

// DiscardDomain closes the domain rolling every touched page back to its
// pre-image: bytes, residency, and soft-dirty bit. It returns the number of
// pages restored.
func (as *AddressSpace) DiscardDomain() (int, error) {
	if as.domain == nil {
		return 0, fmt.Errorf("mem: DiscardDomain: no open domain")
	}
	d := as.domain
	as.domain = nil // restores below must not re-enter the undo log
	// Mapping-level undo first, newest op first: mappings created inside the
	// domain are removed, removed ones re-inserted, grown ones shrunk. The
	// page restore below then rebuilds frame state against the restored
	// mapping layout.
	for i := len(d.journal) - 1; i >= 0; i-- {
		u := d.journal[i]
		switch u.kind {
		case undoMap:
			if err := as.Unmap(u.m.Start); err != nil {
				return 0, fmt.Errorf("mem: DiscardDomain: %w", err)
			}
		case undoUnmap:
			// Unmap dropped the page table; the page records below refill it.
			u.m.ptes = make([]*Frame, u.m.Pages)
			as.insert(u.m)
		case undoGrow:
			u.m.resize(u.m.Pages - u.extra)
		}
	}
	for p, rec := range d.pages {
		pte := as.resolve(VAddr(p) << PageShift)
		if pte == nil {
			// The page lay in a mapping the rollback removed or shrank
			// away, so it had no frame before the domain either.
			continue
		}
		if !rec.existed {
			*pte = nil
			continue
		}
		f := *pte
		if f == nil {
			f = &Frame{}
			*pte = f
		}
		f.Data = rec.data
		f.Dirty = rec.dirty
		// The restore rewrites the page's bytes, so it is a content mutation
		// from any generation observer's point of view — an observer that
		// recorded the mid-domain stamp must not conclude "unchanged" now
		// that the pre-image is back. The soft-dirty bit, by contrast, is
		// rolled back: it belongs to the preserve baseline, which the
		// pre-image bytes still match.
		as.stamp(f)
	}
	return len(d.pages), nil
}

// touch snapshots page p, whose frame is f (nil when it has none), into the
// open domain's undo log before its first mutation. Every write path calls
// it ahead of the write; it is a no-op when no domain is open or the page was
// already captured. The pre-image is a private copy, never a shared alias:
// the write that follows would copy an aliased buffer anyway, and a discard
// hands the pre-image back to the live frame.
func (as *AddressSpace) touch(p PageNum, f *Frame) {
	if as.domain == nil {
		return
	}
	if _, done := as.domain.pages[p]; done {
		return
	}
	rec := domainRecord{}
	if f != nil {
		rec.existed = true
		rec.dirty = f.Dirty
		if f.Data != nil {
			rec.data = append([]byte(nil), f.Data...)
		}
	}
	as.domain.pages[p] = rec
}
