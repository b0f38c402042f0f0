package webcache

import (
	"testing"
	"time"

	"phoenix/internal/kernel"
	"phoenix/internal/mem"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

func boot(t *testing.T, cfg Config, rcfg recovery.Config, seed int64) (*recovery.Harness, *Cache) {
	t.Helper()
	m := kernel.NewMachine(seed)
	web := workload.NewWeb(workload.WebConfig{Seed: seed, URLs: 2000, MeanSize: 4 << 10})
	c := New(cfg, web, nil)
	h := recovery.NewHarness(m, rcfg, c, web, nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return h, c
}

func TestWarmupAndHits(t *testing.T) {
	h, c := boot(t, Config{}, recovery.Config{Mode: recovery.ModeVanilla}, 1)
	if err := h.RunRequests(10000); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Inserts == 0 {
		t.Fatalf("no cache activity: %+v", st)
	}
	// Zipfian traffic on a warmed cache should mostly hit.
	if float64(st.Hits)/float64(st.Gets) < 0.5 {
		t.Fatalf("hit rate %d/%d too low after warm-up", st.Hits, st.Gets)
	}
}

func TestCapacityEviction(t *testing.T) {
	h, c := boot(t, Config{CapacityBytes: 256 << 10}, recovery.Config{Mode: recovery.ModeVanilla}, 2)
	if err := h.RunRequests(10000); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions under a tight capacity")
	}
	if c.CachedBytes() > 256<<10 {
		t.Fatalf("cache over capacity: %d", c.CachedBytes())
	}
}

func TestDumpBodiesMatchBackend(t *testing.T) {
	h, c := boot(t, Config{}, recovery.Config{Mode: recovery.ModeVanilla}, 3)
	if err := h.RunRequests(2000); err != nil {
		t.Fatal(err)
	}
	dump := c.Dump()
	if len(dump) == 0 {
		t.Fatal("empty dump")
	}
	checked := 0
	for url, got := range dump {
		want := string(body(url, len(got)))
		if got != want {
			t.Fatalf("cached body for %s diverges from backend", url)
		}
		checked++
		if checked > 20 {
			break
		}
	}
}

func bugKeepsCache(t *testing.T, flavor Flavor, bug string) {
	t.Helper()
	rcfg := recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true, WatchdogTimeout: time.Second}
	h, c := boot(t, Config{Flavor: flavor}, rcfg, 5)
	if err := h.RunRequests(8000); err != nil {
		t.Fatal(err)
	}
	lenBefore := c.Len()
	c.ArmBug(bug)
	if err := h.RunRequests(2000); err != nil {
		t.Fatal(err)
	}
	if h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("%s: stats %+v", bug, h.Stat)
	}
	if c.Len() < lenBefore {
		t.Fatalf("%s: cache shrank across phoenix restart: %d -> %d", bug, lenBefore, c.Len())
	}
}

func TestPhoenixPreservesCacheAcrossAllBugs(t *testing.T) {
	for _, bug := range []string{"VA1", "VA2", "VA3", "VA4"} {
		t.Run(bug, func(t *testing.T) { bugKeepsCache(t, FlavorVarnish, bug) })
	}
	for _, bug := range []string{"S1", "S2", "S3", "S4", "S5"} {
		t.Run(bug, func(t *testing.T) { bugKeepsCache(t, FlavorSquid, bug) })
	}
}

func TestVanillaLosesCache(t *testing.T) {
	h, c := boot(t, Config{}, recovery.Config{Mode: recovery.ModeVanilla, WatchdogTimeout: time.Second}, 7)
	if err := h.RunRequests(8000); err != nil {
		t.Fatal(err)
	}
	c.ArmBug("VA1")
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	if c.Len() > 10 {
		t.Fatalf("vanilla restart kept %d objects", c.Len())
	}
}

func TestVarnishCRIUDegradesToFullRestart(t *testing.T) {
	rcfg := recovery.Config{Mode: recovery.ModeCRIU, CheckpointInterval: 10 * time.Millisecond, WatchdogTimeout: time.Second}
	h, c := boot(t, Config{Flavor: FlavorVarnish}, rcfg, 8)
	if err := h.RunRequests(5000); err != nil {
		t.Fatal(err)
	}
	c.ArmBug("VA1")
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	// The restored worker cannot re-handshake: cache lost (§4.3.3).
	if c.Len() > 10 {
		t.Fatalf("varnish criu restore should degrade to full restart, kept %d", c.Len())
	}
}

func TestSquidCRIUKeepsCache(t *testing.T) {
	rcfg := recovery.Config{Mode: recovery.ModeCRIU, CheckpointInterval: 10 * time.Millisecond, WatchdogTimeout: time.Second}
	h, c := boot(t, Config{Flavor: FlavorSquid}, rcfg, 9)
	if err := h.RunRequests(5000); err != nil {
		t.Fatal(err)
	}
	before := c.Len()
	c.ArmBug("S1")
	if err := h.RunRequests(10); err != nil {
		t.Fatal(err)
	}
	// The restored cache keeps (almost) everything from the snapshot; a few
	// post-restore misses may add objects.
	if c.Len() < before*9/10 {
		t.Fatalf("squid criu restore lost cache: %d vs %d", c.Len(), before)
	}
}

func TestSquidSectionStaticsPreserved(t *testing.T) {
	rcfg := recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true, WatchdogTimeout: time.Second}
	h, c := boot(t, Config{Flavor: FlavorSquid}, rcfg, 10)
	if err := h.RunRequests(2000); err != nil {
		t.Fatal(err)
	}
	// Mutate a pool slot; it must survive the PHOENIX restart via
	// .phx.data preservation.
	c.rt.Proc().AS.WriteU64(c.poolsVar.Addr, 4242)
	c.ArmBug("S3")
	if err := h.RunRequests(100); err != nil {
		t.Fatal(err)
	}
	if h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("stats: %+v", h.Stat)
	}
	if got := c.PoolValue(0); got != 4242 {
		t.Fatalf("pool slot = %d after restart, want 4242", got)
	}
}

func TestRefcountsResetOnRecovery(t *testing.T) {
	rcfg := recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true, WatchdogTimeout: time.Second}
	h, c := boot(t, Config{Flavor: FlavorVarnish}, rcfg, 11)
	if err := h.RunRequests(3000); err != nil {
		t.Fatal(err)
	}
	// Inflate a refcount as if a request died holding a reference.
	var obj uint64
	c.dict.Iterate(func(_ []byte, val uint64) bool { obj = val; return false })
	as := c.rt.Proc().AS
	as.WriteU32(mem.VAddr(obj)+objOffRef, 3)
	c.ArmBug("VA1")
	if err := h.RunRequests(100); err != nil {
		t.Fatal(err)
	}
	if c.Stats().RefResets == 0 {
		t.Fatal("no refcounts were reset during recovery")
	}
	if as.ReadU32(mem.VAddr(obj)+objOffRef) != 0 {
		t.Fatal("inflated refcount survived recovery")
	}
}

func TestUnsafeRegionDuringInsert(t *testing.T) {
	h, c := boot(t, Config{}, recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true}, 12)
	if err := h.RunRequests(100); err != nil {
		t.Fatal(err)
	}
	c.rt.UnsafeBegin("cache")
	if _, reason := c.PlanRestart(c.rt, &kernel.CrashInfo{}, true); reason == "" {
		t.Fatal("mid-insert crash not flagged unsafe")
	}
	c.rt.UnsafeEnd("cache")
	if _, reason := c.PlanRestart(c.rt, &kernel.CrashInfo{}, true); reason != "" {
		t.Fatalf("safe point flagged: %s", reason)
	}
}

func TestPhoenixHitRateBeatsVanillaAfterCrash(t *testing.T) {
	rate := map[recovery.Mode]float64{}
	for _, mode := range []recovery.Mode{recovery.ModeVanilla, recovery.ModePhoenix} {
		rcfg := recovery.Config{Mode: mode, UnsafeRegions: mode == recovery.ModePhoenix, WatchdogTimeout: time.Second}
		h, c := boot(t, Config{}, rcfg, 13)
		if err := h.RunRequests(10000); err != nil {
			t.Fatal(err)
		}
		pre := c.Stats()
		c.ArmBug("VA1")
		// Measure the immediate post-crash window, before a cold cache has
		// had time to re-warm.
		if err := h.RunRequests(300); err != nil {
			t.Fatal(err)
		}
		post := c.Stats()
		rate[mode] = float64(post.Hits-pre.Hits) / float64(post.Gets-pre.Gets)
	}
	if rate[recovery.ModePhoenix] < rate[recovery.ModeVanilla]*1.5 {
		t.Fatalf("phoenix post-crash hit rate %.2f vs vanilla %.2f: no clear win",
			rate[recovery.ModePhoenix], rate[recovery.ModeVanilla])
	}
}

// TestObjectChunkBytes pins what one cached object costs the heap: a
// 13-byte URL with a 1,024-byte body takes five chunks, the 40-byte object
// header in a 48-byte chunk, the key and body blobs, the LRU node and the
// dictionary entry.
func TestObjectChunkBytes(t *testing.T) {
	h, c := boot(t, Config{}, recovery.Config{Mode: recovery.ModeVanilla}, 1)
	hp := h.Runtime().MainHeap()
	before := hp.Stats()
	c.Handle(&workload.Request{Op: workload.OpWebGet, Key: workload.URLOf(3), Size: 1024, Cacheable: true})
	after := hp.Stats()
	if chunks, bytes := after.LiveChunks-before.LiveChunks, after.LiveBytes-before.LiveBytes; chunks != 5 || bytes != 1696 {
		t.Fatalf("one object took %d chunks of %d bytes, want 5 of 1,696", chunks, bytes)
	}
}
