package kvstore

import (
	"maps"
	"testing"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/mem"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

// garbageChunks is how many unreachable chunks cleanupRig plants before the
// crash; R3 crashes before the request allocates anything, so they are all
// the garbage the recovery's cleanup finds.
const garbageChunks = 300

// cleanupRig boots a loaded store with the cleanup on, plants garbageChunks
// unreachable allocations, and returns the live chunk count before planting.
func cleanupRig(t *testing.T, rcfg recovery.Config, seed int64) (*recovery.Harness, *KV, int64) {
	t.Helper()
	h, kv := boot(t, Config{Cleanup: true}, recovery.ModePhoenix, rcfg, seed)
	kv.Load(loadKeys(2000), 64)
	hp := h.Runtime().MainHeap()
	live := hp.Stats().LiveChunks
	for i := 0; i < garbageChunks; i++ {
		hp.Alloc(200)
	}
	return h, kv, live
}

// serve runs one request through the harness and fails the test unless it
// was answered.
func serve(t *testing.T, h *recovery.Harness, req *workload.Request) {
	t.Helper()
	ok, _, err := h.ServeRequest(req)
	if err != nil || !ok {
		t.Fatalf("%v %s: ok=%v err=%v", req.Op, req.Key, ok, err)
	}
}

// crashR3 serves one request that dies on bug R3 (a null dereference on
// request-scoped state), which the harness recovers before returning.
func crashR3(t *testing.T, h *recovery.Harness, kv *KV) {
	t.Helper()
	kv.ArmBug("R3")
	if ok, _, err := h.ServeRequest(&workload.Request{Op: workload.OpRead, Key: "user0000000001"}); err != nil || ok {
		t.Fatalf("R3 request: ok=%v err=%v", ok, err)
	}
}

// pendingCleanup returns the live incarnation's cleanup and fails unless its
// frees are still to land.
func pendingCleanup(t *testing.T, h *recovery.Harness) *core.Cleanup {
	t.Helper()
	c := h.Runtime().Cleanup()
	if c == nil || c.Reclaimed || c.Due <= h.M.Clock.Now() {
		t.Fatalf("want a pending cleanup after the PHOENIX recovery, got %+v at %v", c, h.M.Clock.Now())
	}
	return c
}

// reclaimAtNextRequest moves the clock to the cleanup's due time and serves
// a read, at whose boundary the harness frees the garbage.
func reclaimAtNextRequest(t *testing.T, h *recovery.Harness, c *core.Cleanup) {
	t.Helper()
	h.M.Clock.AdvanceTo(c.Due)
	serve(t, h, &workload.Request{Op: workload.OpRead, Key: "user0000000002"})
	if !c.Reclaimed {
		t.Fatal("the first request after the due time did not reclaim")
	}
}

// Chunks born while the fork is alive are never in the collected set: a key
// written after the fork, and a value blob recycled from a chunk the mark
// traversal reached and a delete freed inside the window, both survive the
// reclaim, and the store reads the same before and after it.
func TestCleanupReclaimSparesChunksBornAfterFork(t *testing.T) {
	h, kv, live := cleanupRig(t, phoenixCfg(), 41)
	crashR3(t, h, kv)
	c := pendingCleanup(t, h)

	const victim = "user0000000005"
	oldBlob, ok := kv.dict.Get([]byte(victim))
	if !ok {
		t.Fatal(victim + " missing after recovery")
	}
	serve(t, h, &workload.Request{Op: workload.OpDelete, Key: victim})
	recycled := workload.Value("recycled", 1, 64)
	serve(t, h, &workload.Request{Op: workload.OpInsert, Key: "recycled", Value: recycled})
	if blob, _ := kv.dict.Get([]byte("recycled")); blob != oldBlob {
		t.Fatalf("new value blob at %#x, want the freed marked blob %#x recycled", blob, oldBlob)
	}
	fresh := workload.Value("fresh", 1, 64)
	serve(t, h, &workload.Request{Op: workload.OpInsert, Key: "fresh", Value: fresh})
	if c.Reclaimed {
		t.Fatal("cleanup reclaimed before its due time")
	}

	before := kv.Dump()
	reclaimAtNextRequest(t, h, c)
	if c.FreedChunks != garbageChunks {
		t.Fatalf("reclaim freed %d chunks, want the %d planted", c.FreedChunks, garbageChunks)
	}
	if !kv.dict.Validate() {
		t.Fatal("dictionary invalid after the reclaim")
	}
	if after := kv.Dump(); !maps.Equal(before, after) {
		t.Fatalf("dump changed across the reclaim: %d keys before, %d after", len(before), len(after))
	}
	if got := kv.ctx.BlobBytes(mem.VAddr(oldBlob)); string(got) != string(recycled) {
		t.Fatalf("recycled blob reads %q after the reclaim", got)
	}
	// One key deleted and two inserted since the planting, two chunks each:
	// the dictionary entry, which holds the key, and the value blob.
	if got, want := h.Runtime().MainHeap().Stats().LiveChunks, live+2; got != want {
		t.Fatalf("live chunks after the reclaim = %d, want %d", got, want)
	}
}

// A crash before the reclaim drops the pending cleanup with its runtime; the
// successor's own cleanup finds the same garbage and frees it once.
func TestCleanupDroppedByCrashBeforeReclaim(t *testing.T) {
	h, kv, live := cleanupRig(t, phoenixCfg(), 43)
	crashR3(t, h, kv)
	first := pendingCleanup(t, h)
	// Make the second crash a first failure, so it takes the PHOENIX rung
	// again instead of the second-failure fallback.
	h.Runtime().DisarmGrace()
	crashR3(t, h, kv)
	second := pendingCleanup(t, h)
	if second == first {
		t.Fatal("the successor inherited its predecessor's cleanup")
	}
	reclaimAtNextRequest(t, h, second)
	if first.Reclaimed {
		t.Fatal("the dropped cleanup reclaimed")
	}
	if second.FreedChunks != garbageChunks {
		t.Fatalf("successor freed %d chunks, want the %d planted", second.FreedChunks, garbageChunks)
	}
	if got := h.Runtime().MainHeap().Stats().LiveChunks; got != live {
		t.Fatalf("live chunks = %d, want %d from before the planting", got, live)
	}
	if s := h.Stat; s.Failures != 2 || s.PhoenixRestarts != 2 || s.BootFailures != 0 || s.GraceFallbacks != 0 {
		t.Fatalf("want two clean PHOENIX recoveries and no abort: %+v", s)
	}
}

// The reclaim runs before the request's rewind domain opens, so a request
// discarded right after it cannot bring a freed chunk back.
func TestCleanupReclaimSurvivesRewind(t *testing.T) {
	rcfg := phoenixCfg()
	rcfg.RewindDomains, rcfg.Supervise = true, true
	rcfg.Supervisor.Floor = recovery.LevelRewind
	h, kv, live := cleanupRig(t, rcfg, 47)

	// A crash outside any request has no domain to discard, so the ladder
	// falls through the rewind rung to a PHOENIX restart.
	if err := h.Kill(); err != nil {
		t.Fatal(err)
	}
	c := pendingCleanup(t, h)

	h.M.Clock.AdvanceTo(c.Due)
	crashR3(t, h, kv)
	if !c.Reclaimed || c.FreedChunks != garbageChunks {
		t.Fatalf("reclaim at the crashing request's boundary: %+v", c)
	}
	if h.Stat.PhoenixRestarts != 1 || h.Stat.Rewinds != 1 {
		t.Fatalf("want the R3 request rewound in place: %+v", h.Stat)
	}
	if got := h.Runtime().MainHeap().Stats().LiveChunks; got != live {
		t.Fatalf("live chunks after the discard = %d, want %d: the rewind brought freed chunks back", got, live)
	}
}

// The cleanup's only charge to the restart window is its fork: crash to
// first answer with the cleanup on exceeds the same recovery without it by
// exactly ForkCoW over the preserved pages. kvstore's recovery boot writes
// no preserved page, so none is dirty at fork time.
func TestCleanupDowntimeIsTheFork(t *testing.T) {
	downtime := map[bool]time.Duration{}
	var fork, want time.Duration
	for _, cleanup := range []bool{false, true} {
		h, kv := boot(t, Config{Cleanup: cleanup}, recovery.ModePhoenix, phoenixCfg(), 53)
		kv.Load(loadKeys(2000), 64)
		if err := h.RunRequests(500); err != nil {
			t.Fatal(err)
		}
		kv.ArmBug("R3")
		for i := 0; i < 10; i++ {
			if _, resumed := h.TL.ResumedAt(); resumed {
				break
			}
			if err := h.RunRequests(1); err != nil {
				t.Fatal(err)
			}
		}
		if _, resumed := h.TL.ResumedAt(); !resumed || h.Stat.PhoenixRestarts != 1 {
			t.Fatalf("cleanup=%v: no answer after a PHOENIX recovery: %+v", cleanup, h.Stat)
		}
		downtime[cleanup] = h.TL.Downtime()
		if c := h.Runtime().Cleanup(); cleanup {
			if c == nil || c.Reclaimed {
				t.Fatalf("cleanup reclaimed inside the restart window: %+v", c)
			}
			pages := 0
			for _, r := range h.Runtime().PreservedRanges() {
				pages += mem.PagesFor(r.Len)
			}
			fork, want = c.Fork, h.M.Model.ForkCoW(pages, 0)
		}
	}
	if fork != want || fork <= 0 {
		t.Fatalf("fork charge %v, want ForkCoW over the preserved pages %v", fork, want)
	}
	if diff := downtime[true] - downtime[false]; diff != fork {
		t.Fatalf("cleanup added %v to the restart window, want exactly the fork %v", diff, fork)
	}
}
