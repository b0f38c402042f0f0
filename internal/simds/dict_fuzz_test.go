package simds

import (
	"bytes"
	"slices"
	"testing"
)

// chunksPerEntry is how many heap chunks one dictionary entry owns: the
// entry, which embeds its key.
const chunksPerEntry = 1

// maxDictKey is the longest key the model draws, past BlobEqual's 256-byte
// compare chunk.
const maxDictKey = 300

// dictModel mirrors what a Dict must hold: a Go map from key to value, and
// the heap's live chunks before the dictionary was made.
type dictModel struct {
	t      *testing.T
	c      *Ctx
	d      *Dict
	want   map[string]uint64
	base   int64
	maxNB  uint64
	serial uint64
}

func newDictModel(t *testing.T) *dictModel {
	c := newCtx(t)
	base := c.Heap.Stats().LiveChunks
	d := NewDict(c, 16)
	return &dictModel{t: t, c: c, d: d, want: map[string]uint64{}, base: base}
}

// fuzzKey builds a key of n bytes, n in [0, maxDictKey], from a seed byte.
func fuzzKey(seed byte, n int) []byte {
	k := make([]byte, n)
	for i := range k {
		k[i] = seed ^ byte(i*7)
	}
	return k
}

// pick returns the i-th key of the model in sorted order, so a Get, Delete
// or update can hit a stored key; ok is false on an empty model.
func (m *dictModel) pick(i int) ([]byte, bool) {
	if len(m.want) == 0 {
		return nil, false
	}
	keys := make([]string, 0, len(m.want))
	for k := range m.want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return []byte(keys[i%len(keys)]), true
}

func (m *dictModel) set(key []byte) {
	m.serial++
	val := m.serial<<8 | uint64(len(key))
	old, existed := m.d.Set(key, val)
	wantOld, wantExisted := m.want[string(key)]
	if existed != wantExisted || (existed && old != wantOld) {
		m.t.Fatalf("Set(%d-byte key) = %d, %v; want %d, %v", len(key), old, existed, wantOld, wantExisted)
	}
	m.want[string(key)] = val
}

func (m *dictModel) get(key []byte) {
	v, ok := m.d.Get(key)
	wv, wok := m.want[string(key)]
	if ok != wok || v != wv {
		m.t.Fatalf("Get(%d-byte key) = %d, %v; want %d, %v", len(key), v, ok, wv, wok)
	}
}

func (m *dictModel) del(key []byte) {
	v, ok := m.d.Delete(key)
	wv, wok := m.want[string(key)]
	if ok != wok || v != wv {
		m.t.Fatalf("Delete(%d-byte key) = %d, %v; want %d, %v", len(key), v, ok, wv, wok)
	}
	delete(m.want, string(key))
}

// iterate walks the dictionary, stopping after stop (at least 1) entries
// when stop is below its length, and checks every visited entry against the
// model.
func (m *dictModel) iterate(stop int) {
	seen := map[string]bool{}
	m.d.Iterate(func(k []byte, v uint64) bool {
		if seen[string(k)] {
			m.t.Fatalf("Iterate visited a %d-byte key twice", len(k))
		}
		seen[string(k)] = true
		if wv, ok := m.want[string(k)]; !ok || v != wv {
			m.t.Fatalf("Iterate yielded a %d-byte key with %d; the model holds %d, %v", len(k), v, wv, ok)
		}
		return len(seen) < stop
	})
	if want := min(stop, len(m.want)); len(seen) != want {
		m.t.Fatalf("Iterate stopping at %d visited %d of %d entries", stop, len(seen), len(m.want))
	}
}

// check holds after every operation: the structure validates, its count is
// the model's, and the heap holds the header, the bucket array and
// chunksPerEntry chunks per entry, nothing more.
func (m *dictModel) check() {
	if !m.d.Validate() {
		m.t.Fatal("Validate failed")
	}
	if got := m.d.Len(); got != uint64(len(m.want)) {
		m.t.Fatalf("Len = %d, model holds %d", got, len(m.want))
	}
	if got, want := m.c.Heap.Stats().LiveChunks-m.base, int64(2+chunksPerEntry*len(m.want)); got != want {
		m.t.Fatalf("dictionary holds %d live chunks for %d entries, want %d", got, len(m.want), want)
	}
	_, nb := m.d.buckets()
	m.maxNB = max(m.maxNB, nb)
}

// runDictOps decodes ops four bytes at a time: an operation byte, two bytes
// of key length (or of index into the stored keys) and a key seed byte. It
// returns the largest bucket count the dictionary reached.
func runDictOps(t *testing.T, ops []byte) uint64 {
	m := newDictModel(t)
	for steps := 0; len(ops) >= 4 && steps < 128; steps++ {
		op, v, seed := ops[0], int(ops[1])<<8|int(ops[2]), ops[3]
		ops = ops[4:]
		key := fuzzKey(seed, v%(maxDictKey+1))
		if op&0x80 != 0 {
			if k, ok := m.pick(v); ok {
				key = k
			}
		}
		switch op % 8 {
		case 0, 1, 2, 3:
			m.set(key)
		case 4:
			m.get(key)
		case 5, 6:
			m.del(key)
		default:
			m.iterate(1 + v%64)
		}
		m.check()
	}
	return m.maxNB
}

// dictOp encodes one operation for runDictOps.
func dictOp(op byte, v int, seed byte) []byte {
	return []byte{op, byte(v >> 8), byte(v), seed}
}

// growTwiceOps inserts 40 keys of lengths 0 through 300, which doubles a
// 16-bucket dictionary twice, then reads, updates, deletes and walks them.
func growTwiceOps() []byte {
	var ops []byte
	for i := 0; i < 40; i++ {
		ops = append(ops, dictOp(0, i*300/39, byte(i))...)
	}
	for i := 0; i < 20; i++ {
		ops = append(ops, dictOp(0x80|4, 2*i, 0)...)
	}
	ops = append(ops, dictOp(7, 0, 0)...)
	for i := 0; i < 10; i++ {
		ops = append(ops, dictOp(0x80|1, 3*i, 0)...)
		ops = append(ops, dictOp(0x80|5, 7*i, 0)...)
	}
	ops = append(ops, dictOp(7, 5, 0)...)
	for i := 0; i < 20; i++ {
		ops = append(ops, dictOp(0x80|6, i, 0)...)
	}
	ops = append(ops, dictOp(4, 299, 1)...)
	return append(ops, dictOp(7, 63, 0)...)
}

// FuzzDictMatchesMap drives Set, Get, Delete and Iterate against a Go map
// with keys of 0 to 300 bytes, checking Validate, Len and the heap's live
// chunks after every operation.
func FuzzDictMatchesMap(f *testing.F) {
	f.Add(growTwiceOps())
	f.Add(bytes.Join([][]byte{
		dictOp(0, 256, 9), dictOp(0, 257, 9), dictOp(0, 300, 9),
		dictOp(4, 256, 9), dictOp(4, 300, 8), dictOp(5, 257, 9),
		dictOp(0, 0, 0), dictOp(0, 0, 1), dictOp(0x80|4, 0, 0), dictOp(7, 1, 0),
	}, nil))
	f.Fuzz(func(t *testing.T, ops []byte) { runDictOps(t, ops) })
}

// The growth seed takes a 16-bucket dictionary through two grows, so the
// fuzz target's seed corpus alone covers re-bucketing.
func TestDictModelGrowsTwice(t *testing.T) {
	if nb := runDictOps(t, growTwiceOps()); nb < 64 {
		t.Fatalf("the growth seed reached %d buckets, want at least 64", nb)
	}
}
