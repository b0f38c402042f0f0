// Package workload provides the deterministic workload generators the
// paper's evaluation uses: a YCSB-like read/insert mix with Zipfian key
// popularity (Redis, §4.3.3), a sequential-fill benchmark (LevelDB), and a
// Web-Polygraph-like web trace with exponentially distributed page sizes and
// 80% cacheable content (Varnish/Squid).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Op is a request operation type.
type Op uint8

const (
	// OpRead fetches a key.
	OpRead Op = iota
	// OpInsert writes a new key.
	OpInsert
	// OpUpdate overwrites an existing key.
	OpUpdate
	// OpDelete removes a key.
	OpDelete
	// OpWebGet fetches a URL through a cache.
	OpWebGet
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	case OpWebGet:
		return "GET"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Request is one generated operation.
type Request struct {
	Seq   uint64
	Op    Op
	Key   string
	Value []byte
	// Size is the object size for web requests (the backend's page size).
	Size int
	// Cacheable marks web objects the cache may store.
	Cacheable bool
}

// Generator produces a deterministic request stream.
type Generator interface {
	// Next returns the next request. The same seed yields the same stream.
	Next() *Request
	// Clone returns an independent generator of the same shape, rewound to
	// the start of its stream and re-seeded with seed: two clones with the
	// same seed emit identical streams, and (for seeded generators) clones
	// with distinct seeds emit distinct streams. It clones the generator as
	// configured, not its current cursor — each fabric frontend gets its
	// own clone and replays from request one.
	Clone(seed int64) Generator
}

// --- Zipfian key chooser ---

// Zipf draws integers in [0, n) with Zipfian popularity (s ≈ 0.99, the YCSB
// default). It uses the rejection-inversion method from Go's rand.Zipf,
// wrapped so key 0 is the most popular.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipfian chooser over n items using rng. The exponent is
// slightly above YCSB's 0.99 (rand.Zipf requires s > 1).
func NewZipf(rng *rand.Rand, n uint64) *Zipf {
	return &Zipf{z: rand.NewZipf(rng, 1.07, 1.0, n-1)}
}

// Next draws a key index.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// --- YCSB-like KV workload ---

// YCSBConfig parameterises the KV generator.
type YCSBConfig struct {
	Seed        int64
	Records     uint64  // initial key-space size
	ReadFrac    float64 // fraction of reads (e.g. 0.9)
	InsertFrac  float64 // fraction of inserts (e.g. 0.1)
	UpdateFrac  float64 // remainder after read+insert goes to updates
	ValueSize   int     // payload bytes per value
	ZipfianKeys bool    // Zipfian (default) vs uniform key popularity
}

// YCSB is the KV request generator.
type YCSB struct {
	cfg      YCSBConfig
	rng      *rand.Rand
	zipf     *Zipf
	inserted uint64
	seq      uint64
}

// NewYCSB builds the generator.
func NewYCSB(cfg YCSBConfig) *YCSB {
	if cfg.Records == 0 {
		cfg.Records = 1000
	}
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 100
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &YCSB{cfg: cfg, rng: rng, inserted: cfg.Records}
	if cfg.ZipfianKeys {
		g.zipf = NewZipf(rng, cfg.Records)
	}
	return g
}

// LoadKeys returns the initial dataset keys (key-%010d naming, YCSB style).
func (g *YCSB) LoadKeys() []string {
	out := make([]string, g.cfg.Records)
	for i := range out {
		out[i] = ycsbKey(uint64(i))
	}
	return out
}

func ycsbKey(i uint64) string { return fmt.Sprintf("user%010d", i) }

// Clone implements Generator: a fresh YCSB stream over the same mix and
// key-space parameters, driven by seed.
func (g *YCSB) Clone(seed int64) Generator {
	cfg := g.cfg
	cfg.Seed = seed
	return NewYCSB(cfg)
}

// Value deterministically derives a record's payload from its key and a
// version, so end-to-end validation can recompute expected values.
func Value(key string, version uint64, size int) []byte {
	v := make([]byte, size)
	seed := uint64(14695981039346656037)
	for _, ch := range []byte(key) {
		seed = (seed ^ uint64(ch)) * 1099511628211
	}
	seed ^= version * 0x9E3779B97F4A7C15
	for i := range v {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		v[i] = byte('a' + seed%26)
	}
	return v
}

func (g *YCSB) chooseExisting() uint64 {
	if g.zipf != nil {
		// Scrambled Zipfian, as in YCSB: the popularity rank is hashed
		// across the (growing) keyspace, so newly inserted records can be
		// popular. This is what makes post-loss warm-up gradual — hit rate
		// recovers roughly in proportion to the re-inserted fraction.
		rank := g.zipf.Next()
		x := rank*0x9E3779B97F4A7C15 + 0x1D8E4E27C47D124F
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 33
		return x % g.inserted
	}
	return uint64(g.rng.Int63n(int64(g.inserted)))
}

// Next returns the next KV request.
func (g *YCSB) Next() *Request {
	g.seq++
	r := g.rng.Float64()
	switch {
	case r < g.cfg.ReadFrac:
		return &Request{Seq: g.seq, Op: OpRead, Key: ycsbKey(g.chooseExisting())}
	case r < g.cfg.ReadFrac+g.cfg.InsertFrac:
		k := g.inserted
		g.inserted++
		key := ycsbKey(k)
		return &Request{Seq: g.seq, Op: OpInsert, Key: key, Value: Value(key, 1, g.cfg.ValueSize)}
	default:
		k := g.chooseExisting()
		key := ycsbKey(k)
		return &Request{Seq: g.seq, Op: OpUpdate, Key: key, Value: Value(key, g.seq, g.cfg.ValueSize)}
	}
}

// --- Sequential fill (LevelDB fillseq) ---

// FillSeq emits sequential inserts with fixed-size values, LevelDB's fillseq
// benchmark.
type FillSeq struct {
	next      uint64
	valueSize int
	seq       uint64
}

// NewFillSeq builds the generator.
func NewFillSeq(valueSize int) *FillSeq {
	if valueSize == 0 {
		valueSize = 100
	}
	return &FillSeq{valueSize: valueSize}
}

// Clone implements Generator. FillSeq has no randomness, so the seed instead
// offsets the key space (seed<<32): clones with distinct seeds fill disjoint
// key ranges, which is what independent clients of a shared store need.
func (g *FillSeq) Clone(seed int64) Generator {
	ng := NewFillSeq(g.valueSize)
	ng.next = uint64(seed) << 32
	return ng
}

// Next returns the next sequential insert.
func (g *FillSeq) Next() *Request {
	g.seq++
	key := fmt.Sprintf("%016d", g.next)
	g.next++
	return &Request{Seq: g.seq, Op: OpInsert, Key: key, Value: Value(key, 1, g.valueSize)}
}

// --- Web-Polygraph-like cache workload ---

// WebConfig parameterises the web trace.
type WebConfig struct {
	Seed int64
	// URLs is the number of distinct objects in the population.
	URLs uint64
	// MeanSize is the mean of the exponential page-size distribution.
	MeanSize int
	// CacheableFrac is the fraction of objects the cache may store (0.8 in
	// the paper's setup).
	CacheableFrac float64
}

// Web generates cache GETs with Zipfian URL popularity.
type Web struct {
	cfg  WebConfig
	rng  *rand.Rand
	zipf *Zipf
	seq  uint64
}

// NewWeb builds the generator.
func NewWeb(cfg WebConfig) *Web {
	if cfg.URLs == 0 {
		cfg.URLs = 10000
	}
	if cfg.MeanSize == 0 {
		cfg.MeanSize = 8 << 10
	}
	if cfg.CacheableFrac == 0 {
		cfg.CacheableFrac = 0.8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Web{cfg: cfg, rng: rng, zipf: NewZipf(rng, cfg.URLs)}
}

// Clone implements Generator: a fresh web trace over the same URL population
// (object sizes and cacheability are derived from object ids, so clones agree
// with every other generator built from the same WebConfig).
func (w *Web) Clone(seed int64) Generator {
	cfg := w.cfg
	cfg.Seed = seed
	return NewWeb(cfg)
}

// ObjectSize returns the deterministic size of object i: exponentially
// distributed across the population, derived from the object id so backends
// and validators agree without shared state.
func (w *Web) ObjectSize(i uint64) int {
	// Hash the id into (0,1), invert the exponential CDF.
	x := i*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	u := (float64(x>>11) + 1) / (1 << 53)
	size := int(-math.Log(u) * float64(w.cfg.MeanSize))
	if size < 64 {
		size = 64
	}
	return size
}

// Cacheable reports whether object i may be cached (deterministic per id).
func (w *Web) Cacheable(i uint64) bool {
	x := i*0xD6E8FEB86659FD93 + 7
	x ^= x >> 32
	return float64(x%10000)/10000.0 < w.cfg.CacheableFrac
}

// URLOf formats the object id as a URL key.
func URLOf(i uint64) string { return fmt.Sprintf("/obj/%08d", i) }

// Next returns the next web GET.
func (w *Web) Next() *Request {
	w.seq++
	i := w.zipf.Next()
	return &Request{
		Seq:       w.seq,
		Op:        OpWebGet,
		Key:       URLOf(i),
		Size:      w.ObjectSize(i),
		Cacheable: w.Cacheable(i),
	}
}
