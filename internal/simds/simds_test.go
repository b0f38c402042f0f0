package simds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"phoenix/internal/costmodel"
	"phoenix/internal/heap"
	"phoenix/internal/mem"
	"phoenix/internal/simclock"
)

const heapBase = mem.VAddr(0x1000_0000)

func newCtx(t *testing.T) *Ctx {
	t.Helper()
	as := mem.NewAddressSpace()
	h, err := heap.New(as, heapBase, heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewCtx(h, nil, costmodel.Default())
}

func newTimedCtx(t *testing.T) (*Ctx, *simclock.Clock) {
	t.Helper()
	as := mem.NewAddressSpace()
	h, err := heap.New(as, heapBase, heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	return NewCtx(h, clk, costmodel.Default()), clk
}

// --- blobs ---

func TestBlobRoundTrip(t *testing.T) {
	c := newCtx(t)
	b := c.NewBlob([]byte("hello"))
	if c.BlobLen(b) != 5 || !bytes.Equal(c.BlobBytes(b), []byte("hello")) {
		t.Fatal("blob round trip failed")
	}
	if !c.BlobEqual(b, []byte("hello")) || c.BlobEqual(b, []byte("hellO")) || c.BlobEqual(b, []byte("hell")) {
		t.Fatal("BlobEqual wrong")
	}
}

func TestBlobEmpty(t *testing.T) {
	c := newCtx(t)
	b := c.NewBlob(nil)
	if c.BlobLen(b) != 0 || len(c.BlobBytes(b)) != 0 || !c.BlobEqual(b, nil) {
		t.Fatal("empty blob wrong")
	}
}

func TestBlobSetInPlace(t *testing.T) {
	c := newCtx(t)
	b := c.NewBlob([]byte("aaaa"))
	if !c.BlobSet(b, []byte("bb")) {
		t.Fatal("in-place set of smaller payload failed")
	}
	if !c.BlobEqual(b, []byte("bb")) {
		t.Fatal("in-place content wrong")
	}
	if c.BlobSet(b, make([]byte, 1<<16)) {
		t.Fatal("oversized in-place set succeeded")
	}
}

func TestCompareBlobKey(t *testing.T) {
	c := newCtx(t)
	b := c.NewBlob([]byte("mango"))
	cases := []struct {
		key  string
		want int
	}{
		{"mango", 0}, {"manga", 1}, {"mangz", -1}, {"mang", 1}, {"mangoo", -1}, {"zebra", -1}, {"apple", 1},
	}
	for _, tc := range cases {
		if got := c.CompareBlobKey(b, []byte(tc.key)); got != tc.want {
			t.Errorf("CompareBlobKey(mango,%q) = %d, want %d", tc.key, got, tc.want)
		}
	}
}

// --- dict ---

func TestDictBasic(t *testing.T) {
	c := newCtx(t)
	d := NewDict(c, 16)
	if _, ok := d.Get([]byte("k")); ok {
		t.Fatal("Get on empty dict")
	}
	if _, existed := d.Set([]byte("k"), 7); existed {
		t.Fatal("fresh Set reported existing")
	}
	v, ok := d.Get([]byte("k"))
	if !ok || v != 7 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	old, existed := d.Set([]byte("k"), 8)
	if !existed || old != 7 {
		t.Fatalf("update Set = %d,%v", old, existed)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	got, ok := d.Delete([]byte("k"))
	if !ok || got != 8 {
		t.Fatalf("Delete = %d,%v", got, ok)
	}
	if d.Len() != 0 {
		t.Fatal("Len after delete != 0")
	}
	if _, ok := d.Delete([]byte("k")); ok {
		t.Fatal("double Delete succeeded")
	}
}

func TestDictGrowth(t *testing.T) {
	c := newCtx(t)
	d := NewDict(c, 16)
	const n = 5000
	for i := 0; i < n; i++ {
		d.Set([]byte(fmt.Sprintf("key-%d", i)), uint64(i))
	}
	if d.Len() != n {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := d.Get([]byte(fmt.Sprintf("key-%d", i)))
		if !ok || v != uint64(i) {
			t.Fatalf("key-%d = %d,%v", i, v, ok)
		}
	}
	if !d.Validate() {
		t.Fatal("Validate failed after growth")
	}
}

func TestDictIterate(t *testing.T) {
	c := newCtx(t)
	d := NewDict(c, 16)
	want := map[string]uint64{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%02d", i)
		want[k] = uint64(i * 3)
		d.Set([]byte(k), uint64(i*3))
	}
	got := map[string]uint64{}
	d.Iterate(func(k []byte, v uint64) bool {
		got[string(k)] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("iterated %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %s = %d, want %d", k, got[k], v)
		}
	}
	// Early stop.
	seen := 0
	d.Iterate(func(k []byte, v uint64) bool { seen++; return seen < 5 })
	if seen != 5 {
		t.Fatalf("early stop visited %d", seen)
	}
}

func TestDictMarkSweepSurvival(t *testing.T) {
	c := newCtx(t)
	d := NewDict(c, 16)
	for i := 0; i < 200; i++ {
		d.Set([]byte(fmt.Sprintf("k%d", i)), uint64(i))
	}
	// Allocate garbage that should be swept.
	for i := 0; i < 50; i++ {
		c.Heap.Alloc(64)
	}
	d.Mark(nil)
	freed, _, _ := c.Heap.Sweep()
	if freed != 50 {
		t.Fatalf("sweep freed %d chunks, want 50", freed)
	}
	// Dict fully usable after sweep.
	if !d.Validate() {
		t.Fatal("dict corrupted by sweep")
	}
	v, ok := d.Get([]byte("k123"))
	if !ok || v != 123 {
		t.Fatal("dict content lost after sweep")
	}
	d.Set([]byte("new"), 1)
}

func TestDictPreserveAcrossMove(t *testing.T) {
	c := newCtx(t)
	d := NewDict(c, 16)
	for i := 0; i < 500; i++ {
		d.Set([]byte(fmt.Sprintf("key-%04d", i)), uint64(i)+1000)
	}
	root := d.Addr()

	dst := mem.NewAddressSpace()
	for _, r := range c.Heap.PreservedRanges() {
		if _, err := c.AS.MovePages(dst, r.Start, r.Len/mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	h2, err := heap.Attach(dst, heapBase, heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCtx(h2, nil, costmodel.Default())
	d2 := OpenDict(c2, root)
	if d2.Len() != 500 || !d2.Validate() {
		t.Fatalf("reopened dict: len=%d valid=%v", d2.Len(), d2.Validate())
	}
	v, ok := d2.Get([]byte("key-0042"))
	if !ok || v != 1042 {
		t.Fatal("reopened dict content lost")
	}
	d2.Set([]byte("post-restart"), 5)
	if d2.Len() != 501 {
		t.Fatal("insert after reopen failed")
	}
}

func TestDictChargesTime(t *testing.T) {
	c, clk := newTimedCtx(t)
	d := NewDict(c, 16)
	before := clk.Now()
	d.Set([]byte("a"), 1)
	if clk.Now() == before {
		t.Fatal("Set charged no simulated time")
	}
}

// Each entry is one chunk holding the 20-byte entry header and the key
// blob: max(32, (24+L+8+15) &^ 15) bytes for an L-byte key.
func TestDictEntryChunkBytes(t *testing.T) {
	for _, tc := range []struct{ keyLen, chunk int }{{0, 32}, {16, 48}, {17, 64}, {40, 80}} {
		c := newCtx(t)
		d := NewDict(c, 16)
		before := c.Heap.Stats()
		d.Set(bytes.Repeat([]byte{'k'}, tc.keyLen), 1)
		after := c.Heap.Stats()
		if chunks, size := after.LiveChunks-before.LiveChunks, after.LiveBytes-before.LiveBytes; chunks != 1 || size != int64(tc.chunk) {
			t.Errorf("a %d-byte key took %d chunks of %d bytes, want 1 of %d", tc.keyLen, chunks, size, tc.chunk)
		}
	}
}

// k70659 and k516982 have different FNV-1a hashes (0x2bd34f141cfa8c47 and
// 0x9515bdf31cfa8c47) with the same low 32 bits, the part an entry stores,
// so they share a chain and pass the stored-hash compare against each
// other. Only the key compare tells them apart.
func TestDictStoredHashCollision(t *testing.T) {
	a, b := []byte("k70659"), []byte("k516982")
	if ha, hb := hashBytes(a), hashBytes(b); ha == hb || uint32(ha) != uint32(hb) {
		t.Fatalf("hashes %#x and %#x must differ only above the low 32 bits", ha, hb)
	}
	for _, order := range [][2][]byte{{a, b}, {b, a}} {
		first, second := order[0], order[1]
		c := newCtx(t)
		d := NewDict(c, 16)
		d.Set(first, 1)
		d.Set(second, 2)
		bkts, _ := d.buckets()
		slot := bkts + mem.VAddr((hashBytes(a)&15)*8)
		chain := 0
		for e := c.AS.ReadPtr(slot); e != mem.NullPtr; e = c.AS.ReadPtr(e + entryOffNext) {
			chain++
		}
		if chain != 2 {
			t.Fatalf("the colliding keys' bucket chain holds %d entries, want 2", chain)
		}
		get := func(k []byte, want uint64, wantOK bool) {
			t.Helper()
			if v, ok := d.Get(k); v != want || ok != wantOK {
				t.Fatalf("Get(%s) = %d, %v; want %d, %v", k, v, ok, want, wantOK)
			}
		}
		get(first, 1, true)
		get(second, 2, true)
		if old, existed := d.Set(first, 3); old != 1 || !existed {
			t.Fatalf("updating %s returned %d, %v", first, old, existed)
		}
		get(second, 2, true)
		if v, ok := d.Delete(second); v != 2 || !ok {
			t.Fatalf("Delete(%s) = %d, %v", second, v, ok)
		}
		get(first, 3, true)
		get(second, 0, false)
		if _, ok := d.Delete(second); ok {
			t.Fatalf("second Delete(%s) succeeded", second)
		}
		if d.Len() != 1 || !d.Validate() {
			t.Fatalf("after the delete: len=%d valid=%v", d.Len(), d.Validate())
		}
		if v, ok := d.Delete(first); v != 3 || !ok || d.Len() != 0 {
			t.Fatalf("Delete(%s) = %d, %v, leaving len %d", first, v, ok, d.Len())
		}
	}
}

// Property: dict behaves like a Go map under random operations.
func TestQuickDictMapEquivalence(t *testing.T) {
	c := newCtx(t)
	d := NewDict(c, 16)
	shadow := map[string]uint64{}
	f := func(key uint8, val uint64, del bool) bool {
		k := fmt.Sprintf("key-%d", key%64)
		if del {
			_, okD := d.Delete([]byte(k))
			_, okS := shadow[k]
			delete(shadow, k)
			if okD != okS {
				return false
			}
		} else {
			d.Set([]byte(k), val)
			shadow[k] = val
		}
		if d.Len() != uint64(len(shadow)) {
			return false
		}
		v, ok := d.Get([]byte(k))
		sv, sok := shadow[k]
		return ok == sok && (!ok || v == sv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if !d.Validate() {
		t.Fatal("Validate failed after random ops")
	}
}

// --- skiplist ---

func TestSkiplistBasic(t *testing.T) {
	c := newCtx(t)
	s := NewSkiplist(c, 42)
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("Get on empty skiplist")
	}
	if !s.Insert([]byte("a"), []byte("1")) {
		t.Fatal("fresh Insert reported replace")
	}
	if s.Insert([]byte("a"), []byte("2")) {
		t.Fatal("replace Insert reported fresh")
	}
	v, ok := s.Get([]byte("a"))
	if !ok || string(v) != "2" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if !s.Delete([]byte("a")) || s.Delete([]byte("a")) {
		t.Fatal("Delete semantics wrong")
	}
	if s.Len() != 0 {
		t.Fatal("Len after delete")
	}
}

func TestSkiplistOrdering(t *testing.T) {
	c := newCtx(t)
	s := NewSkiplist(c, 1)
	r := rand.New(rand.NewSource(7))
	keys := r.Perm(1000)
	for _, k := range keys {
		s.Insert([]byte(fmt.Sprintf("%06d", k)), []byte(fmt.Sprintf("v%d", k)))
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
	var got []string
	s.IterAll(func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if !sort.StringsAreSorted(got) {
		t.Fatal("IterAll not in key order")
	}
	if len(got) != 1000 {
		t.Fatalf("IterAll visited %d", len(got))
	}
	if !s.Validate() {
		t.Fatal("Validate failed")
	}
}

func TestSkiplistValueRealloc(t *testing.T) {
	c := newCtx(t)
	s := NewSkiplist(c, 9)
	s.Insert([]byte("k"), []byte("small"))
	big := bytes.Repeat([]byte("x"), 5000)
	s.Insert([]byte("k"), big)
	v, ok := s.Get([]byte("k"))
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("value realloc failed")
	}
	if s.PayloadBytes() != uint64(1+len(big)) {
		t.Fatalf("PayloadBytes = %d", s.PayloadBytes())
	}
}

func TestSkiplistPreserveAcrossMove(t *testing.T) {
	c := newCtx(t)
	s := NewSkiplist(c, 3)
	for i := 0; i < 300; i++ {
		s.Insert([]byte(fmt.Sprintf("%05d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	root := s.Addr()
	dst := mem.NewAddressSpace()
	for _, r := range c.Heap.PreservedRanges() {
		if _, err := c.AS.MovePages(dst, r.Start, r.Len/mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	h2, err := heap.Attach(dst, heapBase, heap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := OpenSkiplist(NewCtx(h2, nil, costmodel.Default()), root)
	if s2.Len() != 300 || !s2.Validate() {
		t.Fatal("reopened skiplist invalid")
	}
	v, ok := s2.Get([]byte("00123"))
	if !ok || string(v) != "val-123" {
		t.Fatal("reopened skiplist content lost")
	}
	// Deterministic RNG state preserved: inserts still work.
	s2.Insert([]byte("zzzzz"), []byte("tail"))
	if !s2.Validate() {
		t.Fatal("insert after reopen broke skiplist")
	}
}

func TestSkiplistMarkSweep(t *testing.T) {
	c := newCtx(t)
	s := NewSkiplist(c, 5)
	for i := 0; i < 100; i++ {
		s.Insert([]byte(fmt.Sprintf("%04d", i)), []byte("v"))
	}
	garbage := c.Heap.Alloc(1000)
	_ = garbage
	s.Mark()
	freed, _, _ := c.Heap.Sweep()
	if freed != 1 {
		t.Fatalf("sweep freed %d, want 1", freed)
	}
	if !s.Validate() {
		t.Fatal("skiplist corrupted by sweep")
	}
}

// Property: skiplist matches a sorted Go map.
func TestQuickSkiplistEquivalence(t *testing.T) {
	c := newCtx(t)
	s := NewSkiplist(c, 99)
	shadow := map[string]string{}
	f := func(key uint8, val uint16, del bool) bool {
		k := fmt.Sprintf("%03d", key%128)
		v := fmt.Sprintf("%d", val)
		if del {
			okS := false
			if _, ok := shadow[k]; ok {
				okS = true
			}
			if s.Delete([]byte(k)) != okS {
				return false
			}
			delete(shadow, k)
		} else {
			s.Insert([]byte(k), []byte(v))
			shadow[k] = v
		}
		got, ok := s.Get([]byte(k))
		want, wok := shadow[k]
		return ok == wok && (!ok || string(got) == want) && s.Len() == uint64(len(shadow))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	if !s.Validate() {
		t.Fatal("Validate failed after random ops")
	}
}

// --- list ---

func TestListBasic(t *testing.T) {
	c := newCtx(t)
	l := NewList(c)
	if l.Len() != 0 || l.Back() != mem.NullPtr || l.Front() != mem.NullPtr {
		t.Fatal("empty list wrong")
	}
	n1 := l.PushFront(1)
	n2 := l.PushFront(2)
	n3 := l.PushFront(3)
	if l.Len() != 3 || l.Front() != n3 || l.Back() != n1 {
		t.Fatal("push order wrong")
	}
	if l.Payload(n2) != 2 {
		t.Fatal("payload wrong")
	}
	if !l.Validate() {
		t.Fatal("Validate failed")
	}
	if got := l.Remove(n2); got != 2 {
		t.Fatalf("Remove = %d", got)
	}
	if l.Len() != 2 || !l.Validate() {
		t.Fatal("list broken after middle remove")
	}
}

func TestListMoveToFront(t *testing.T) {
	c := newCtx(t)
	l := NewList(c)
	n1 := l.PushFront(1)
	n2 := l.PushFront(2)
	n3 := l.PushFront(3)
	// List is [3 2 1]; moving the tail to front yields [1 3 2].
	l.MoveToFront(n1)
	if l.Front() != n1 || l.Back() != n2 {
		var order []uint64
		l.Iterate(func(_ mem.VAddr, p uint64) bool { order = append(order, p); return true })
		t.Fatalf("MoveToFront order = %v", order)
	}
	l.MoveToFront(n1) // already front: no-op
	if l.Front() != n1 || !l.Validate() {
		t.Fatal("MoveToFront of head broke list")
	}
	// Move the current tail (n2) to front: [2 1 3].
	l.MoveToFront(n2)
	if l.Front() != n2 || l.Back() != n3 || !l.Validate() {
		t.Fatal("MoveToFront of tail broke list")
	}
}

func TestListRemoveEnds(t *testing.T) {
	c := newCtx(t)
	l := NewList(c)
	n1 := l.PushFront(1)
	n2 := l.PushFront(2)
	l.Remove(n2) // head
	if l.Front() != n1 || l.Back() != n1 || !l.Validate() {
		t.Fatal("head remove broke list")
	}
	l.Remove(n1) // last element
	if l.Len() != 0 || l.Front() != mem.NullPtr || l.Back() != mem.NullPtr {
		t.Fatal("final remove broke list")
	}
}

func TestListIterateAndMark(t *testing.T) {
	c := newCtx(t)
	l := NewList(c)
	for i := 0; i < 10; i++ {
		l.PushFront(uint64(i))
	}
	var got []uint64
	l.Iterate(func(_ mem.VAddr, p uint64) bool { got = append(got, p); return true })
	if len(got) != 10 || got[0] != 9 || got[9] != 0 {
		t.Fatalf("Iterate = %v", got)
	}
	garbage := c.Heap.Alloc(100)
	_ = garbage
	marked := 0
	l.Mark(func(uint64) { marked++ })
	if marked != 10 {
		t.Fatalf("Mark payload callback ran %d times", marked)
	}
	freed, _, _ := c.Heap.Sweep()
	if freed != 1 {
		t.Fatalf("sweep freed %d, want 1", freed)
	}
	if !l.Validate() {
		t.Fatal("list corrupted by sweep")
	}
}
