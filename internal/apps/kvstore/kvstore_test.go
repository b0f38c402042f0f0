package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/mem"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

func boot(t *testing.T, cfg Config, mode recovery.Mode, rcfg recovery.Config, seed int64) (*recovery.Harness, *KV) {
	t.Helper()
	m := kernel.NewMachine(seed)
	kv := New(cfg, nil)
	rcfg.Mode = mode
	gen := workload.NewYCSB(workload.YCSBConfig{
		Seed: seed, Records: 2000, ReadFrac: 0.9, InsertFrac: 0.1,
		ValueSize: 64, ZipfianKeys: true,
	})
	h := recovery.NewHarness(m, rcfg, kv, gen, nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return h, kv
}

func loadKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%010d", i)
	}
	return keys
}

func TestServeWithoutFailure(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeVanilla, recovery.Config{}, 1)
	kv.Load(loadKeys(2000), 64)
	if err := h.RunRequests(5000); err != nil {
		t.Fatal(err)
	}
	st := kv.Stats()
	if st.Gets == 0 || st.Hits == 0 || st.Sets == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Reads of loaded keys must hit.
	if float64(st.Hits)/float64(st.Gets) < 0.95 {
		t.Fatalf("hit rate %d/%d too low", st.Hits, st.Gets)
	}
	if h.Stat.Failures != 0 {
		t.Fatalf("unexpected failures: %+v", h.Stat)
	}
}

// TestKeyChunkBytes pins what one stored key costs the heap, the density
// that glibc's 16-byte size classes, its 8-byte chunk header and keys
// embedded in dictionary entries buy: a 14-byte YCSB key with a 128-byte
// value takes a 48-byte dictionary entry holding the key and a 144-byte
// value blob.
func TestKeyChunkBytes(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeVanilla, recovery.Config{}, 1)
	kv.Load(loadKeys(100), 128)
	hp := h.Runtime().MainHeap()
	before := hp.Stats()
	kv.Load([]string{workload.Key(100)}, 128)
	after := hp.Stats()
	if chunks, bytes := after.LiveChunks-before.LiveChunks, after.LiveBytes-before.LiveBytes; chunks != 2 || bytes != 48+144 {
		t.Fatalf("one key took %d chunks of %d bytes, want 2 of 192 (48 + 144)", chunks, bytes)
	}
}

// TestBootChunkBytes pins what a freshly booted store holds on its heap: the
// dictionary header, its 1,024-bucket array and the 24-byte info block.
func TestBootChunkBytes(t *testing.T) {
	h, _ := boot(t, Config{}, recovery.ModeVanilla, recovery.Config{}, 1)
	if st := h.Runtime().MainHeap().Stats(); st.LiveChunks != 3 || st.LiveBytes != 16448 {
		t.Fatalf("a booted store holds %d chunks of %d bytes, want 3 of 16,448", st.LiveChunks, st.LiveBytes)
	}
}

func TestDumpMatchesWrites(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeVanilla, recovery.Config{}, 2)
	kv.Load(loadKeys(100), 16)
	_ = h
	dump := kv.Dump()
	if len(dump) != 100 {
		t.Fatalf("dump has %d keys", len(dump))
	}
	want := string(workload.Value("user0000000007", 1, 16))
	if dump["user0000000007"] != want {
		t.Fatalf("dump value mismatch: %q vs %q", dump["user0000000007"], want)
	}
}

func TestRDBRoundTrip(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeBuiltin, recovery.Config{CheckpointInterval: time.Hour}, 3)
	kv.Load(loadKeys(500), 32)
	before := kv.Dump()
	kv.Checkpoint()
	if kv.Stats().RDBSaves != 1 {
		t.Fatal("checkpoint did not save")
	}
	// Simulate crash: plain restart reloads from RDB.
	np, err := h.Runtime().Fallback("test")
	if err != nil {
		t.Fatal(err)
	}
	rt2 := core.Init(np, nil)
	if err := kv.Main(rt2); err != nil {
		t.Fatal(err)
	}
	after := kv.Dump()
	if len(after) != len(before) {
		t.Fatalf("reloaded %d keys, want %d", len(after), len(before))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %s mismatch after reload", k)
		}
	}
}

// TestCheckpointRoundTripsEveryKey checkpoints a store of mixed value sizes
// after it outgrew its first image, checks the image byte for byte against a
// record-at-a-time encoding, then takes a builtin restart through the harness
// and reads back every key and value.
func TestCheckpointRoundTripsEveryKey(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModeBuiltin, recovery.Config{CheckpointInterval: time.Hour}, 37)
	keys := loadKeys(300)
	kv.Load(keys, 16)
	kv.Checkpoint()
	// Empty, small and page-spanning values, so the next image is larger
	// than the one it is sized from.
	for i, k := range keys {
		kv.Handle(&workload.Request{Op: workload.OpInsert, Key: k, Value: workload.Value(k, 2, i*37%9000)})
	}
	before := kv.Dump()
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
	}
}

// recordAtATimeImage encodes the RDB image the way Checkpoint did before it
// wrote into one buffer: every record copied out separately, then
// concatenated behind the header.
func recordAtATimeImage(kv *KV) []byte {
	var recs []byte
	var count uint64
	field := func(buf, b []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(buf, uint32(len(b))), b...)
	}
	kv.dict.Iterate(func(key []byte, val uint64) bool {
		recs = field(field(recs, key), kv.ctx.BlobBytes(mem.VAddr(val)))
		count++
		return true
	})
	return append(binary.LittleEndian.AppendUint64(nil, count), recs...)
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func phoenixCfg() recovery.Config {
	return recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true, WatchdogTimeout: 2 * time.Second}
}

func runBugScenario(t *testing.T, bug string) (*recovery.Harness, *KV) {
	t.Helper()
	h, kv := boot(t, Config{}, recovery.ModePhoenix, phoenixCfg(), 7)
	kv.Load(loadKeys(2000), 64)
	if err := h.RunRequests(2000); err != nil {
		t.Fatal(err)
	}
	kv.ArmBug(bug)
	if err := h.RunRequests(3000); err != nil {
		t.Fatal(err)
	}
	return h, kv
}

func TestPhoenixRecoveryHang(t *testing.T) {
	h, kv := runBugScenario(t, "R4")
	if h.Stat.Failures != 1 || h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("stats: %+v", h.Stat)
	}
	// Data survived: hit rate stays high after recovery.
	st := kv.Stats()
	if float64(st.Hits)/float64(st.Gets) < 0.9 {
		t.Fatalf("post-recovery hit rate too low: %d/%d", st.Hits, st.Gets)
	}
	// Downtime includes the watchdog dwell but recovery itself is fast.
	sum := h.TL.Summarize()
	if sum.Downtime < 2*time.Second || sum.Downtime > 3*time.Second {
		t.Fatalf("downtime %v, want watchdog (2s) + fast restart", sum.Downtime)
	}
}

func TestPhoenixRecoveryNullptr(t *testing.T) {
	h, _ := runBugScenario(t, "R3")
	if h.Stat.PhoenixRestarts != 1 || h.Stat.UnsafeFallbacks != 0 {
		t.Fatalf("stats: %+v", h.Stat)
	}
	sum := h.TL.Summarize()
	// No hang: downtime is the phoenix restart plus reduced boot, well
	// under the fresh boot cost.
	if sum.Downtime > 200*time.Millisecond {
		t.Fatalf("phoenix downtime %v too high", sum.Downtime)
	}
}

func TestPhoenixFallbackInUnsafeRegion(t *testing.T) {
	h, kv := runBugScenario(t, "R2")
	if h.Stat.UnsafeFallbacks != 1 {
		t.Fatalf("R2 should fall back via unsafe region: %+v", h.Stat)
	}
	if h.Stat.PhoenixRestarts != 0 {
		t.Fatalf("R2 must not phoenix-restart: %+v", h.Stat)
	}
	// Fallback rebuilds from scratch (no persistence in this config):
	// the store still serves, with data lost.
	if kv.Len() == 0 {
		t.Fatal("store empty — inserts after recovery should repopulate")
	}
}

func TestPhoenixOOM(t *testing.T) {
	h, _ := runBugScenario(t, "R1")
	if h.Stat.Failures != 1 {
		t.Fatalf("stats: %+v", h.Stat)
	}
	if h.Stat.PhoenixRestarts+h.Stat.UnsafeFallbacks != 1 {
		t.Fatalf("no recovery recorded: %+v", h.Stat)
	}
}

func TestModesPreserveOrLoseData(t *testing.T) {
	for _, tc := range []struct {
		mode     recovery.Mode
		interval time.Duration
		keepData bool
	}{
		{recovery.ModeVanilla, 0, false},
		{recovery.ModeBuiltin, 10 * time.Millisecond, true},
		{recovery.ModeCRIU, 10 * time.Millisecond, true},
		{recovery.ModePhoenix, 0, true},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			rcfg := recovery.Config{
				Mode: tc.mode, UnsafeRegions: tc.mode == recovery.ModePhoenix,
				CheckpointInterval: tc.interval, WatchdogTimeout: time.Second,
			}
			h, kv := boot(t, Config{}, tc.mode, rcfg, 11)
			kv.Load(loadKeys(2000), 64)
			if err := h.RunRequests(4000); err != nil {
				t.Fatal(err)
			}
			kv.ArmBug("R3")
			if err := h.RunRequests(4000); err != nil {
				t.Fatal(err)
			}
			if h.Stat.Failures != 1 {
				t.Fatalf("failures = %d", h.Stat.Failures)
			}
			st := kv.Stats()
			hitRate := float64(st.Hits) / float64(st.Gets)
			if tc.keepData && hitRate < 0.85 {
				t.Fatalf("%s lost data: hit rate %.2f", tc.mode, hitRate)
			}
			if !tc.keepData && hitRate > 0.8 {
				t.Fatalf("%s should have lost data: hit rate %.2f", tc.mode, hitRate)
			}
		})
	}
}

func TestPhoenixDowntimeBeatsBuiltin(t *testing.T) {
	downtime := map[recovery.Mode]time.Duration{}
	for _, mode := range []recovery.Mode{recovery.ModeBuiltin, recovery.ModePhoenix} {
		rcfg := recovery.Config{
			Mode: mode, UnsafeRegions: mode == recovery.ModePhoenix,
			CheckpointInterval: 5 * time.Second, WatchdogTimeout: time.Second,
		}
		h, kv := boot(t, Config{}, mode, rcfg, 13)
		kv.Load(loadKeys(20000), 128)
		if err := h.RunRequests(20000); err != nil {
			t.Fatal(err)
		}
		kv.ArmBug("R3")
		if err := h.RunRequests(20000); err != nil {
			t.Fatal(err)
		}
		downtime[mode] = h.TL.Summarize().Downtime
	}
	if downtime[recovery.ModePhoenix]*5 > downtime[recovery.ModeBuiltin] {
		t.Fatalf("phoenix %v not clearly faster than builtin %v",
			downtime[recovery.ModePhoenix], downtime[recovery.ModeBuiltin])
	}
}

func TestCrossCheckPassesOnCleanRecovery(t *testing.T) {
	rcfg := recovery.Config{
		Mode: recovery.ModePhoenix, UnsafeRegions: true, CrossCheck: true,
		CheckpointInterval: 20 * time.Millisecond, WatchdogTimeout: time.Second,
	}
	h, kv := boot(t, Config{RedoLog: true}, recovery.ModePhoenix, rcfg, 17)
	kv.Load(loadKeys(2000), 64)
	if err := h.RunRequests(5000); err != nil {
		t.Fatal(err)
	}
	kv.ArmBug("R3")
	if err := h.RunRequests(5000); err != nil {
		t.Fatal(err)
	}
	// Let the background validation complete on the simulated timeline.
	h.M.Clock.Advance(5 * time.Second)
	v := h.CrossCheckResult()
	if v == nil {
		t.Fatal("cross-check never completed")
	}
	if !v.Match {
		t.Fatalf("cross-check diverged on clean recovery: %v", v.Diverged)
	}
	if h.Stat.CrossFallbacks != 0 {
		t.Fatalf("unexpected hot switch: %+v", h.Stat)
	}
}

func TestCrossCheckCatchesCorruption(t *testing.T) {
	// Inject a silent corruption (missing store) after the last checkpoint
	// so the preserved state diverges from checkpoint+redo replay; the
	// cross-check must detect it and hot-switch to the validated state.
	m := kernel.NewMachine(19)
	inj := faultinject.New()
	kv := New(Config{RedoLog: true}, inj)
	rcfg := recovery.Config{
		Mode: recovery.ModePhoenix, UnsafeRegions: false, CrossCheck: true,
		// One checkpoint cadence long enough that nothing checkpoints
		// between the fault firing and the crash.
		CheckpointInterval: time.Hour, WatchdogTimeout: time.Second,
	}
	gen := workload.NewFillSeq(32) // every request is a logged insert
	h := recovery.NewHarness(m, rcfg, kv, gen, inj)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := h.RunRequests(1000); err != nil {
		t.Fatal(err)
	}
	// Lost update: the dict link is skipped once while the redo log still
	// records the write.
	inj.Arm("kv.set.link", faultinject.MissingStore)
	inj.Enable()
	if err := h.RunRequests(100); err != nil {
		t.Fatal(err)
	}
	if !inj.Fired("kv.set.link") {
		t.Fatal("fault did not fire")
	}
	kv.ArmBug("R3")
	if err := h.RunRequests(100); err != nil {
		t.Fatal(err)
	}
	if h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("stats: %+v", h.Stat)
	}
	// Deliver the verdict, then take a step so the driver processes the
	// pending hot-switch.
	h.M.Clock.Advance(10 * time.Second)
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if h.Stat.CrossFallbacks != 1 {
		t.Fatalf("cross-check did not hot-switch: %+v", h.Stat)
	}
	// The hot-switched state is the validated S_r: the lost update is back.
	if v := h.CrossCheckResult(); v == nil || v.Match {
		t.Fatal("verdict should be a mismatch")
	}
	dump := kv.Dump()
	if len(dump) < 1100 {
		t.Fatalf("restored reference missing keys: %d", len(dump))
	}
}

func TestSecondFailureFallsBack(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModePhoenix, phoenixCfg(), 23)
	kv.Load(loadKeys(1000), 32)
	if err := h.RunRequests(1000); err != nil {
		t.Fatal(err)
	}
	kv.ArmBug("R3")
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	// Second failure immediately after the PHOENIX restart.
	kv.ArmBug("R3")
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if h.Stat.PhoenixRestarts != 1 || h.Stat.GraceFallbacks != 1 {
		t.Fatalf("second-failure rule not applied: %+v", h.Stat)
	}
}

// The cleanup's mark and sweep leave the retained heap pages clean, so the
// PHOENIX preserve after a cleanup recovery reuses the cached checksum of
// every page the requests in between did not write. Reuse is counted over
// the resident pages: a mapped page never written has no sum to reuse.
func TestCleanupRecoveryKeepsChecksumReuse(t *testing.T) {
	h, kv := boot(t, Config{Cleanup: true}, recovery.ModePhoenix, phoenixCfg(), 29)
	kv.Load(loadKeys(20000), 64)
	crash := func() *kernel.Handoff {
		t.Helper()
		h.M.Clock.Advance(core.SecondFailureGrace + time.Second)
		kv.ArmBug("R3")
		if err := h.RunRequests(20); err != nil {
			t.Fatal(err)
		}
		return h.Proc().Handoff()
	}
	crash()
	ho := crash()
	if h.Stat.PhoenixRestarts != 2 {
		t.Fatalf("want two PHOENIX restarts: %+v", h.Stat)
	}
	if frac := float64(ho.ReusedChecksums) / float64(ho.ResidentPages); frac < 0.98 {
		t.Fatalf("second preserve reused %d checksums of %d resident pages (%.3f), want >= 0.98",
			ho.ReusedChecksums, ho.ResidentPages, frac)
	}
}

func TestInjectionSitesRegistered(t *testing.T) {
	inj := faultinject.New()
	New(Config{}, inj)
	if len(inj.Sites()) < 10 {
		t.Fatalf("only %d sites registered", len(inj.Sites()))
	}
	mod := 0
	for _, s := range inj.Sites() {
		if s.Modifying {
			mod++
		}
	}
	if mod == 0 {
		t.Fatal("no modifying-phase sites")
	}
}

func TestInjectedMissingStoreSilentlyCorrupts(t *testing.T) {
	m := kernel.NewMachine(29)
	inj := faultinject.New()
	kv := New(Config{}, inj)
	gen := workload.NewFillSeq(32)
	h := recovery.NewHarness(m, recovery.Config{Mode: recovery.ModeVanilla}, kv, gen, inj)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := h.RunRequests(100); err != nil {
		t.Fatal(err)
	}
	inj.Arm("kv.set.link", faultinject.MissingStore)
	inj.Enable()
	if err := h.RunRequests(100); err != nil {
		t.Fatal(err)
	}
	// Exactly one insert was dropped: 199 keys present.
	if kv.Len() != 199 {
		t.Fatalf("len = %d, want 199 (one lost update)", kv.Len())
	}
	if h.Stat.Failures != 0 {
		t.Fatal("silent corruption should not crash")
	}
}

// TestCorruptPreserveFallsBackBeforeServing: a bit flip armed against the
// preserved frames reaches the PHOENIX successor, which boots on it at once.
// The background verdict fails inside the 30 ms reattach, so the harness
// falls back at the first request boundary: the corrupted incarnation
// answers no request, and the run counts exactly one checksum mismatch and
// one integrity fallback.
func TestCorruptPreserveFallsBackBeforeServing(t *testing.T) {
	h, kv := boot(t, Config{}, recovery.ModePhoenix, phoenixCfg(), 3)
	kv.Load(loadKeys(2000), 64)
	if err := h.RunRequests(200); err != nil {
		t.Fatal(err)
	}
	h.Inj.Arm(faultinject.SitePreserveCorrupt, faultinject.BitFlip)
	h.Inj.Enable()
	if err := h.Kill(); err != nil {
		t.Fatal(err)
	}
	v := h.Proc().Verify()
	if h.Stat.PhoenixRestarts != 1 || v == nil || !v.Landed || v.Err == nil {
		t.Fatalf("want a PHOENIX successor whose failing verdict landed during its boot: %+v, verdict %+v", h.Stat, v)
	}
	corrupted := h.Proc()
	if err := h.RunRequests(50); err != nil {
		t.Fatal(err)
	}
	if n := h.M.Counters.ChecksumMismatches.Load(); h.Stat.IntegrityFallbacks != 1 || n != 1 {
		t.Fatalf("integrity fallbacks %d, mismatches %d; want 1 each", h.Stat.IntegrityFallbacks, n)
	}
	if h.Stat.ServedBeforeVerdict != 0 || h.Proc() == corrupted || !corrupted.Dead() {
		t.Fatalf("the corrupted incarnation served %d requests (replaced: %v)", h.Stat.ServedBeforeVerdict, h.Proc() != corrupted)
	}
}

// TestServeRequestAllocs pins the harness request rung of the allocation
// ladder on a warm 2,000-key PHOENIX store with the cleanup on: a read
// through Harness.ServeRequest allocates one Go object, the reply's copy of
// the value, and an update none.
func TestServeRequestAllocs(t *testing.T) {
	h, kv := boot(t, Config{Cleanup: true}, recovery.ModePhoenix, recovery.Config{UnsafeRegions: true}, 1)
	kv.Load(loadKeys(2000), 64)
	const key = "user0000000042"
	for _, c := range []struct {
		req  *workload.Request
		want float64
	}{
		{&workload.Request{Op: workload.OpRead, Key: key}, 1},
		{&workload.Request{Op: workload.OpUpdate, Key: key, Value: workload.Value(key, 2, 64)}, 0},
	} {
		got := testing.AllocsPerRun(500, func() {
			if ok, _, err := h.ServeRequest(c.req); err != nil || !ok {
				t.Fatalf("%v: ok=%v err=%v", c.req.Op, ok, err)
			}
		})
		if got != c.want {
			t.Errorf("%v through ServeRequest allocates %v objects, want %v", c.req.Op, got, c.want)
		}
	}
}
