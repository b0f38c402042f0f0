package simds

import "phoenix/internal/mem"

// Dict is a separate-chaining hash table in simulated memory, the analogue
// of Redis's key-value dictionary — the paper's canonical preservation
// target (Table 3).
//
// Header layout (allocated on the heap):
//
//	 0: entry count (u64)
//	 8: bucket count (u64, power of two)
//	16: bucket-array pointer (VAddr)
//
// Entry layout (one heap chunk per entry, key embedded as in Valkey 8):
//
//	 0: next entry (VAddr)
//	 8: value (u64, caller-owned meaning: raw integer or pointer)
//	16: low 32 bits of the key hash (u32)
//	20: key blob: u32 length, then the key bytes
//
// An L-byte key's entry is one max(32, (24+L+8+15) &^ 15)-byte chunk.
// ValidateHeader caps the bucket count at 2^30, so the stored 32 hash bits
// place an entry in any valid table and a grow re-links entries without
// re-hashing a key. A lookup compares them before the key, whose bytes sit
// in the entry's own chunk.
//
// Values are opaque u64s so callers can store either raw payloads or
// simulated pointers; Mark takes a callback so the owner can extend the GC
// traversal into value objects.
type Dict struct {
	c    *Ctx
	addr mem.VAddr
}

const (
	dictHdrSize   = 24
	dictOffCount  = 0
	dictOffNBkt   = 8
	dictOffBkts   = 16
	entryOffNext  = 0
	entryOffVal   = 8
	entryOffHash  = 16
	entryOffKey   = 20
	dictMinBucket = 16
)

// NewDict allocates an empty dictionary. initialBuckets is rounded up to a
// power of two (minimum 16).
func NewDict(c *Ctx, initialBuckets int) *Dict {
	nb := dictMinBucket
	for nb < initialBuckets {
		nb <<= 1
	}
	hdr := c.mustAlloc(dictHdrSize)
	bkts := c.mustAlloc(nb * 8)
	c.AS.Zero(bkts, nb*8)
	c.AS.WriteU64(hdr+dictOffCount, 0)
	c.AS.WriteU64(hdr+dictOffNBkt, uint64(nb))
	c.AS.WritePtr(hdr+dictOffBkts, bkts)
	return &Dict{c: c, addr: hdr}
}

// OpenDict reattaches to a dictionary at addr — the post-restart step where
// the application re-adopts its preserved root pointer (Figure 2, line 9).
func OpenDict(c *Ctx, addr mem.VAddr) *Dict {
	return &Dict{c: c, addr: addr}
}

// Addr returns the dictionary's root address (what goes into the recovery
// info block).
func (d *Dict) Addr() mem.VAddr { return d.addr }

// Len returns the number of entries.
func (d *Dict) Len() uint64 { return d.c.AS.ReadU64(d.addr + dictOffCount) }

func (d *Dict) buckets() (bkts mem.VAddr, nb uint64) {
	return d.c.AS.ReadPtr(d.addr + dictOffBkts), d.c.AS.ReadU64(d.addr + dictOffNBkt)
}

// find returns the entry for key and the address of the link pointing at it
// (bucket slot or previous entry's next field), or NullPtr entries if absent.
func (d *Dict) find(key []byte, h uint64) (entry, linkAddr mem.VAddr, steps int) {
	bkts, nb := d.buckets()
	slot := bkts + mem.VAddr((h&(nb-1))*8)
	link := slot
	e := d.c.AS.ReadPtr(link)
	steps = 1
	for e != mem.NullPtr {
		steps++
		if d.c.AS.ReadU32(e+entryOffHash) == uint32(h) && d.c.BlobEqual(e+entryOffKey, key) {
			return e, link, steps
		}
		link = e + entryOffNext
		e = d.c.AS.ReadPtr(link)
	}
	return mem.NullPtr, mem.NullPtr, steps
}

// Get returns the value stored for key.
func (d *Dict) Get(key []byte) (uint64, bool) {
	h := hashBytes(key)
	e, _, steps := d.find(key, h)
	d.c.Charge(steps)
	if e == mem.NullPtr {
		return 0, false
	}
	return d.c.AS.ReadU64(e + entryOffVal), true
}

// Set inserts or updates key → val, returning the previous value and whether
// the key already existed. The caller owns any object the old value pointed
// to.
func (d *Dict) Set(key []byte, val uint64) (old uint64, existed bool) {
	h := hashBytes(key)
	e, _, steps := d.find(key, h)
	if e != mem.NullPtr {
		old = d.c.AS.ReadU64(e + entryOffVal)
		d.c.AS.WriteU64(e+entryOffVal, val)
		d.c.Charge(steps + 1)
		return old, true
	}
	// Insert at bucket head.
	bkts, nb := d.buckets()
	slot := bkts + mem.VAddr((h&(nb-1))*8)
	ne := d.c.mustAlloc(entryOffKey + blobHdr + len(key))
	d.c.AS.WritePtr(ne+entryOffNext, d.c.AS.ReadPtr(slot))
	d.c.AS.WriteU64(ne+entryOffVal, val)
	d.c.AS.WriteU32(ne+entryOffHash, uint32(h))
	d.c.AS.WriteU32(ne+entryOffKey, uint32(len(key)))
	if len(key) > 0 {
		d.c.AS.WriteAt(ne+entryOffKey+blobHdr, key)
	}
	d.c.AS.WritePtr(slot, ne)
	cnt := d.Len() + 1
	d.c.AS.WriteU64(d.addr+dictOffCount, cnt)
	d.c.Charge(steps + 4)
	d.c.ChargeBytes(len(key))
	if cnt > nb {
		d.grow()
	}
	return 0, false
}

// Delete removes key, returning its value and whether it existed. The entry,
// key included, is freed; the value object (if a pointer) is the caller's to
// free.
func (d *Dict) Delete(key []byte) (uint64, bool) {
	h := hashBytes(key)
	e, link, steps := d.find(key, h)
	d.c.Charge(steps + 2)
	if e == mem.NullPtr {
		return 0, false
	}
	val := d.c.AS.ReadU64(e + entryOffVal)
	d.c.AS.WritePtr(link, d.c.AS.ReadPtr(e+entryOffNext))
	d.c.Heap.Free(e)
	d.c.AS.WriteU64(d.addr+dictOffCount, d.Len()-1)
	return val, true
}

// grow doubles the bucket array and re-links every entry by its stored hash
// bits.
func (d *Dict) grow() {
	oldBkts, nb := d.buckets()
	newNB := nb * 2
	newBkts := d.c.Heap.Alloc(int(newNB) * 8)
	if newBkts == mem.NullPtr {
		return // degrade to longer chains under memory pressure
	}
	d.c.AS.Zero(newBkts, int(newNB)*8)
	steps := 0
	for i := uint64(0); i < nb; i++ {
		e := d.c.AS.ReadPtr(oldBkts + mem.VAddr(i*8))
		for e != mem.NullPtr {
			next := d.c.AS.ReadPtr(e + entryOffNext)
			h := uint64(d.c.AS.ReadU32(e + entryOffHash))
			slot := newBkts + mem.VAddr((h&(newNB-1))*8)
			d.c.AS.WritePtr(e+entryOffNext, d.c.AS.ReadPtr(slot))
			d.c.AS.WritePtr(slot, e)
			e = next
			steps += 3
		}
	}
	d.c.AS.WriteU64(d.addr+dictOffNBkt, newNB)
	d.c.AS.WritePtr(d.addr+dictOffBkts, newBkts)
	d.c.Heap.Free(oldBkts)
	d.c.Charge(steps + int(nb))
}

// Iterate visits every entry in bucket order. Return false to stop. The key
// slice is a copy and safe to retain.
func (d *Dict) Iterate(fn func(key []byte, val uint64) bool) {
	bkts, nb := d.buckets()
	steps := 0
	for i := uint64(0); i < nb; i++ {
		e := d.c.AS.ReadPtr(bkts + mem.VAddr(i*8))
		for e != mem.NullPtr {
			steps++
			key := d.c.BlobBytes(e + entryOffKey)
			val := d.c.AS.ReadU64(e + entryOffVal)
			if !fn(key, val) {
				d.c.Charge(steps)
				return
			}
			e = d.c.AS.ReadPtr(e + entryOffNext)
		}
	}
	d.c.Charge(steps + int(nb))
}

// Mark sets the PHOENIX marker (in the heap's transient side bitmap, never in
// preserved pages) on the dictionary header, bucket array and every entry
// (its key included), and invokes markVal for each stored value so the owner
// can mark value objects — the developer traversal protocol of §3.4.
func (d *Dict) Mark(markVal func(val uint64)) {
	d.c.Heap.Mark(d.addr)
	bkts, nb := d.buckets()
	d.c.Heap.Mark(bkts)
	steps := int(nb)
	for i := uint64(0); i < nb; i++ {
		e := d.c.AS.ReadPtr(bkts + mem.VAddr(i*8))
		for e != mem.NullPtr {
			steps += 2
			d.c.Heap.Mark(e)
			if markVal != nil {
				markVal(d.c.AS.ReadU64(e + entryOffVal))
			}
			e = d.c.AS.ReadPtr(e + entryOffNext)
		}
	}
	d.c.Charge(steps)
}

// ValidateHeader performs the cheap sanity check a real server does when
// re-adopting a preserved dictionary: header fields must be plausible. It
// does NOT walk the chains — deep corruption surfaces later, on access,
// which is exactly the hazard the unsafe-region mechanism exists to bound.
func (d *Dict) ValidateHeader() (valid bool) {
	defer func() {
		if recover() != nil {
			valid = false
		}
	}()
	bkts, nb := d.buckets()
	if nb == 0 || nb&(nb-1) != 0 || nb > 1<<30 {
		return false
	}
	if !d.c.AS.Mapped(bkts) || !d.c.AS.Mapped(bkts+mem.VAddr(nb*8-1)) {
		return false
	}
	return true
}

// Validate walks the whole structure checking invariants (hash placement,
// count consistency). It returns false if corruption is detected without
// crashing — used by cross-check comparison and injection validation.
func (d *Dict) Validate() (valid bool) {
	defer func() {
		if recover() != nil {
			valid = false // a fault during the walk also means corrupt
		}
	}()
	bkts, nb := d.buckets()
	if nb == 0 || nb&(nb-1) != 0 {
		return false
	}
	var count uint64
	ok := true
	for i := uint64(0); i < nb; i++ {
		e := d.c.AS.ReadPtr(bkts + mem.VAddr(i*8))
		for e != mem.NullPtr {
			count++
			if count > d.Len()+1 {
				return false // cycle or count corruption
			}
			h := d.c.AS.ReadU32(e + entryOffHash)
			if uint64(h)&(nb-1) != i {
				ok = false
			}
			if uint32(hashBytes(d.c.BlobBytes(e+entryOffKey))) != h {
				ok = false
			}
			e = d.c.AS.ReadPtr(e + entryOffNext)
		}
	}
	return ok && count == d.Len()
}
