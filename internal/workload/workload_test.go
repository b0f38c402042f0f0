package workload

import (
	"fmt"
	"math"
	"testing"
)

func TestYCSBDeterministic(t *testing.T) {
	cfg := YCSBConfig{Seed: 5, Records: 100, ReadFrac: 0.9, InsertFrac: 0.1, ValueSize: 32, ZipfianKeys: true}
	g1, g2 := NewYCSB(cfg), NewYCSB(cfg)
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Op != b.Op || a.Key != b.Key || string(a.Value) != string(b.Value) {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a, b)
		}
	}
}

// Key must print exactly what fmt's "user%010d" prints, past ten digits too.
func TestKeyMatchesSprintf(t *testing.T) {
	for _, i := range []uint64{0, 9, 999_999_999, 9_999_999_999, 10_000_000_000, math.MaxUint64} {
		if got, want := Key(i), fmt.Sprintf("user%010d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestYCSBMix(t *testing.T) {
	g := NewYCSB(YCSBConfig{Seed: 1, Records: 1000, ReadFrac: 0.9, InsertFrac: 0.1, ZipfianKeys: true})
	counts := map[Op]int{}
	for i := 0; i < 20000; i++ {
		counts[g.Next().Op]++
	}
	readFrac := float64(counts[OpRead]) / 20000
	insFrac := float64(counts[OpInsert]) / 20000
	if math.Abs(readFrac-0.9) > 0.02 || math.Abs(insFrac-0.1) > 0.02 {
		t.Fatalf("mix off: read=%.3f insert=%.3f", readFrac, insFrac)
	}
}

func TestYCSBInsertsExtendKeyspace(t *testing.T) {
	g := NewYCSB(YCSBConfig{Seed: 2, Records: 10, ReadFrac: 0, InsertFrac: 1, ZipfianKeys: true})
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		r := g.Next()
		if r.Op != OpInsert {
			t.Fatal("expected insert")
		}
		if seen[r.Key] {
			t.Fatalf("duplicate insert key %s", r.Key)
		}
		seen[r.Key] = true
		if len(r.Value) == 0 {
			t.Fatal("insert without value")
		}
	}
}

func TestYCSBZipfSkew(t *testing.T) {
	g := NewYCSB(YCSBConfig{Seed: 3, Records: 10000, ReadFrac: 1, ZipfianKeys: true})
	counts := map[string]int{}
	for i := 0; i < 50000; i++ {
		counts[g.Next().Key]++
	}
	// Popularity must be concentrated: the hottest key gets far more than
	// the uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 50000/10000*20 {
		t.Fatalf("no zipfian skew: max key count %d", max)
	}
}

func TestValueDeterministic(t *testing.T) {
	a := Value("key", 1, 64)
	b := Value("key", 1, 64)
	c := Value("key", 2, 64)
	d := Value("yek", 1, 64)
	if string(a) != string(b) {
		t.Fatal("Value not deterministic")
	}
	if string(a) == string(c) || string(a) == string(d) {
		t.Fatal("Value ignores version or key")
	}
	if len(Value("k", 1, 17)) != 17 {
		t.Fatal("Value wrong length")
	}
}

func TestFillSeq(t *testing.T) {
	g := NewFillSeq(100)
	prev := ""
	for i := 0; i < 100; i++ {
		r := g.Next()
		if r.Op != OpInsert || len(r.Value) != 100 {
			t.Fatalf("bad request %+v", r)
		}
		if r.Key <= prev {
			t.Fatal("fillseq keys not increasing")
		}
		prev = r.Key
	}
}

func TestWebDeterministicAndDistributed(t *testing.T) {
	cfg := WebConfig{Seed: 4, URLs: 1000, MeanSize: 8 << 10, CacheableFrac: 0.8}
	g1, g2 := NewWeb(cfg), NewWeb(cfg)
	sizes := make([]int, 0, 5000)
	cacheable := 0
	for i := 0; i < 5000; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Key != b.Key || a.Size != b.Size || a.Cacheable != b.Cacheable {
			t.Fatal("web generator not deterministic")
		}
		if a.Op != OpWebGet || a.Size < 64 {
			t.Fatalf("bad request %+v", a)
		}
		sizes = append(sizes, a.Size)
		if a.Cacheable {
			cacheable++
		}
	}
	// Roughly 80% cacheable (weighted by popularity, so allow slack).
	frac := float64(cacheable) / 5000
	if frac < 0.5 || frac > 0.99 {
		t.Fatalf("cacheable fraction %.2f implausible", frac)
	}
	// Exponential-ish size distribution: mean near MeanSize over the
	// population (weighted sample will differ; sanity-check the per-object
	// oracle instead).
	var sum float64
	for i := uint64(0); i < 1000; i++ {
		sum += float64(g1.ObjectSize(i))
	}
	mean := sum / 1000
	if mean < 4<<10 || mean > 16<<10 {
		t.Fatalf("object size mean %.0f far from 8KiB", mean)
	}
	// Size and cacheability are per-object stable.
	if g1.ObjectSize(7) != g1.ObjectSize(7) || g1.Cacheable(7) != g1.Cacheable(7) {
		t.Fatal("object oracle unstable")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpRead: "READ", OpInsert: "INSERT", OpUpdate: "UPDATE", OpDelete: "DELETE", OpWebGet: "GET",
	} {
		if op.String() != want {
			t.Fatalf("%d.String() = %s", op, op.String())
		}
	}
}
