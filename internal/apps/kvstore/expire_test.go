package kvstore

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/kernel"
	"phoenix/internal/mem"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

func TestExpireAndTTL(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeVanilla, recovery.Config{}, 31)
	kv.Load([]string{"hot"}, 16)
	if !kv.Expire("hot", 2*time.Second) {
		t.Fatal("Expire on existing key failed")
	}
	if kv.Expire("missing", time.Second) {
		t.Fatal("Expire on missing key succeeded")
	}
	ttl, ok := kv.TTL("hot")
	if !ok || ttl <= 0 || ttl > 2*time.Second {
		t.Fatalf("TTL = %v,%v", ttl, ok)
	}
	// Still readable before the deadline.
	ok, eff := kv.Handle(&workload.Request{Op: workload.OpRead, Key: "hot"})
	if !ok || !eff {
		t.Fatal("key expired early")
	}
	// Past the deadline: lazy expiration on access.
	h.M.Clock.Advance(3 * time.Second)
	ok, eff = kv.Handle(&workload.Request{Op: workload.OpRead, Key: "hot"})
	if !ok || eff {
		t.Fatal("expired key still readable")
	}
	if kv.Stats().Expired != 1 {
		t.Fatalf("Expired = %d", kv.Stats().Expired)
	}
	if _, ok := kv.TTL("hot"); ok {
		t.Fatal("TTL survives expiry")
	}
}

func TestActiveExpireCycle(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeVanilla, recovery.Config{}, 32)
	kv.Load([]string{"a", "b", "c"}, 16)
	kv.Expire("a", time.Millisecond)
	kv.Expire("b", time.Millisecond)
	h.M.Clock.Advance(time.Second)
	// Drive unrelated requests until the cron pass reaps the dead keys.
	for i := 0; i < 200 && kv.Stats().Expired < 2; i++ {
		kv.Handle(&workload.Request{Op: workload.OpRead, Key: "c"})
	}
	if kv.Stats().Expired != 2 {
		t.Fatalf("active cycle reaped %d, want 2", kv.Stats().Expired)
	}
	if kv.Len() != 1 {
		t.Fatalf("Len = %d, want 1", kv.Len())
	}
}

func TestSetClearsTTL(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeVanilla, recovery.Config{}, 33)
	kv.Load([]string{"k"}, 16)
	kv.Expire("k", time.Second)
	kv.Handle(&workload.Request{Op: workload.OpInsert, Key: "k", Value: []byte("fresh")})
	h.M.Clock.Advance(5 * time.Second)
	ok, eff := kv.Handle(&workload.Request{Op: workload.OpRead, Key: "k"})
	if !ok || !eff {
		t.Fatal("SET did not clear the TTL")
	}
}

func TestDeleteClearsTTL(t *testing.T) {
	_, kv := boot(t, Config{}, recovery.ModeVanilla, recovery.Config{}, 34)
	kv.Load([]string{"k"}, 16)
	kv.Expire("k", time.Hour)
	kv.Handle(&workload.Request{Op: workload.OpDelete, Key: "k"})
	if _, ok := kv.TTL("k"); ok {
		t.Fatal("DEL left a TTL behind")
	}
}

func TestTTLSurvivesPhoenixRestart(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModePhoenix, phoenixCfg(), 35)
	kv.Load(loadKeys(100), 16)
	kv.Expire("user0000000001", 30*time.Second)
	kv.Expire("user0000000002", 50*time.Millisecond)
	h.M.Clock.Advance(time.Second) // key 2's deadline passes pre-crash
	kv.ArmBug("R3")
	if err := h.RunRequests(100); err != nil {
		t.Fatal(err)
	}
	if h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("stats: %+v", h.Stat)
	}
	// The long TTL survived the restart; the short one is dead.
	if ttl, ok := kv.TTL("user0000000001"); !ok || ttl <= 0 {
		t.Fatalf("TTL lost across restart: %v %v", ttl, ok)
	}
	ok, eff := kv.Handle(&workload.Request{Op: workload.OpRead, Key: "user0000000002"})
	if !ok || eff {
		t.Fatal("pre-crash-expired key readable after restart")
	}
}

func TestTTLSurvivesRDBRoundTrip(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeBuiltin, recovery.Config{CheckpointInterval: time.Hour}, 36)
	kv.Load([]string{"k1", "k2"}, 16)
	kv.Expire("k1", time.Hour)
	kv.Checkpoint()
	// Crash and reload from the RDB: the expiry table travels with it.
	np, err := h.Runtime().Fallback("test")
	if err != nil {
		t.Fatal(err)
	}
	rt2 := newRuntimeForTest(np)
	if err := kv.Main(rt2); err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.TTL("k1"); !ok {
		t.Fatal("TTL lost across RDB reload")
	}
	if _, ok := kv.TTL("k2"); ok {
		t.Fatal("phantom TTL after reload")
	}
}

// TestCheckpointRoundTripsEveryKeyAndTTL checkpoints a store of mixed value
// sizes, some with TTLs, after it outgrew its first image; checks the image
// byte for byte against a record-at-a-time encoding; then takes a builtin
// restart through the harness and reads back every key, value and deadline.
func TestCheckpointRoundTripsEveryKeyAndTTL(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeBuiltin, recovery.Config{CheckpointInterval: time.Hour}, 37)
	keys := loadKeys(300)
	kv.Load(keys, 16)
	kv.Checkpoint()
	// Empty, small and page-spanning values, so the next image is larger
	// than the one it is sized from.
	for i, k := range keys {
		kv.Handle(&workload.Request{Op: workload.OpInsert, Key: k, Value: workload.Value(k, 2, i*37%9000)})
	}
	for i, k := range keys[:100] {
		kv.Expire(k, time.Duration(i+1)*time.Minute)
	}
	before := kv.Dump()
	deadlines := map[string]time.Duration{}
	for _, k := range keys {
		if ttl, ok := kv.TTL(k); ok {
			deadlines[k] = h.M.Clock.Now() + ttl
		}
	}
	kv.Checkpoint()
	img, ok := h.M.Disk.ReadFile(rdbFile)
	if !ok {
		t.Fatal("checkpoint wrote no image")
	}
	if want := recordAtATimeImage(kv); !bytes.Equal(img, want) {
		t.Fatalf("image is %d bytes, a record-at-a-time encoding %d; first difference at byte %d",
			len(img), len(want), firstDiff(img, want))
	}

	if err := h.Kill(); err != nil {
		t.Fatal(err)
	}
	if h.Stat.OtherRestarts != 1 || kv.Stats().RDBLoads != 1 {
		t.Fatalf("want one builtin restart from the image, got %+v, %d loads", h.Stat, kv.Stats().RDBLoads)
	}
	after := kv.Dump()
	if len(after) != len(before) {
		t.Fatalf("restart read back %d keys, want %d", len(after), len(before))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %s: %d bytes after restart, %d before", k, len(after[k]), len(v))
		}
		ttl, ok := kv.TTL(k)
		if dl, had := deadlines[k]; ok != had || (had && h.M.Clock.Now()+ttl != dl) {
			t.Fatalf("key %s: deadline %v (ttl %v, %v) after restart, want %v (%v)", k, h.M.Clock.Now()+ttl, ttl, ok, dl, had)
		}
	}
}

// recordAtATimeImage encodes the RDB image the way Checkpoint did before it
// wrote into one buffer: every record and expiry copied out separately, then
// concatenated behind the header.
func recordAtATimeImage(kv *KV) []byte {
	var recs, exps []byte
	var count uint64
	field := func(buf, b []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(buf, uint32(len(b))), b...)
	}
	kv.dict.Iterate(func(key []byte, val uint64) bool {
		recs = field(field(recs, key), kv.ctx.BlobBytes(mem.VAddr(val)))
		count++
		return true
	})
	kv.expires.Iterate(func(key []byte, dl uint64) bool {
		exps = binary.LittleEndian.AppendUint64(field(exps, key), dl)
		return true
	})
	img := binary.LittleEndian.AppendUint64(nil, count)
	img = append(img, recs...)
	return append(binary.LittleEndian.AppendUint32(img, uint32(len(exps))), exps...)
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// newRuntimeForTest mirrors the driver's runtime creation.
func newRuntimeForTest(np *kernel.Process) *core.Runtime {
	return core.Init(np, nil)
}
