// Package webcache is the repository's web-cache-server analogue, covering
// both evaluated flavors: Varnish (master–worker architecture, reference-
// counted objects) and Squid (section-annotated static pools).
//
// Preserved state (Table 3): the cached page objects — the dict from URL to
// object, the LRU list, and the object bodies. Neither flavor has builtin
// persistence (both run in-memory stores, §4.3.3), so the alternatives to
// PHOENIX are losing the cache (Vanilla, and CRIU for Varnish, whose
// master–worker coordination CRIU disrupts) or a stale CRIU image (Squid).
//
// Effective availability is the hit rate: a freshly restarted cache answers
// requests quickly but misses everything, which is precisely the warm-up
// problem partial preservation removes.
package webcache

import (
	"fmt"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/faultinject"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/recovery"
	"phoenix/internal/simds"
	"phoenix/internal/workload"
)

// Flavor selects the modelled server.
type Flavor int

const (
	// FlavorVarnish models Varnish: worker process under a master,
	// refcounted cache objects.
	FlavorVarnish Flavor = iota
	// FlavorSquid models Squid: static memory pools annotated with phxsec.
	FlavorSquid
)

func (f Flavor) String() string {
	if f == FlavorSquid {
		return "squid"
	}
	return "varnish"
}

// Config parameterises the cache.
type Config struct {
	Flavor Flavor
	// CapacityBytes bounds total cached body bytes (LRU eviction beyond).
	CapacityBytes   int64
	BootCost        time.Duration
	PhoenixBootCost time.Duration
	// Cleanup runs mark-and-sweep after a PHOENIX recovery, off the restart
	// window (core.Cleanup).
	Cleanup bool
}

func (c *Config) fill() {
	if c.CapacityBytes == 0 {
		c.CapacityBytes = 64 << 20
	}
	if c.BootCost == 0 {
		c.BootCost = 400 * time.Millisecond
	}
	if c.PhoenixBootCost == 0 {
		c.PhoenixBootCost = 40 * time.Millisecond
	}
}

// An origin fetch on a miss waits backendLatency, then streams the body at
// backendRate bytes per second.
const (
	backendLatency = 2 * time.Millisecond
	backendRate    = 100 << 20
)

// Cache-object layout in simulated memory:
//
//	 0: refcount (u32)   — live request references (Varnish)
//	 4: flags (u32)
//	 8: body size (u64)
//	16: LRU node (VAddr)
//	24: key blob (VAddr)
//	32: body blob (VAddr)
const (
	objSize    = 40
	objOffRef  = 0
	objOffFlag = 4
	objOffLen  = 8
	objOffLRU  = 16
	objOffKey  = 24
	objOffBody = 32
)

// Root-block layout: [0] dict, [8] lru list, [16] cached bytes, [24] magic.
const (
	rootSize  = 32
	rootMagic = 0x7765626361636865 // "webcache"
)

// Cache is the server program.
type Cache struct {
	cfg Config
	img *linker.Image
	inj *faultinject.Injector

	// phxsec statics (Squid's pool table, Figure 5).
	poolsVar *linker.StaticVar
	initVar  *linker.StaticVar

	rt          *core.Runtime
	ctx         *simds.Ctx
	dict        *simds.Dict
	lru         *simds.List
	root        mem.VAddr
	persistence bool

	web *workload.Web // object size/cacheability oracle (backend model)

	armedBug  string
	armedComp string
	inflight  string

	stats Stats
}

// Stats counts cache activity.
type Stats struct {
	Gets, Hits, Misses, Inserts, Evictions uint64
	RefResets                              uint64
}

// New creates the program. web supplies the deterministic backend.
func New(cfg Config, web *workload.Web, inj *faultinject.Injector) *Cache {
	cfg.fill()
	b := linker.NewBuilder("webcache-"+cfg.Flavor.String(), 0x0010_0000)
	c := &Cache{cfg: cfg, inj: inj, web: web}
	if cfg.Flavor == FlavorSquid {
		// Squid's static pool table lives in .phx.data via the phxsec
		// macro (Figure 5): preserved across PHOENIX restarts with
		// with_section, without global-scope plumbing.
		c.poolsVar = b.Var("Mem::pools", 32*8, linker.SecPhxData)
		c.initVar = b.Var("Mem::initialized", 8, linker.SecPhxBSS)
	} else {
		b.Var("varnish.params", 64, linker.SecData)
	}
	c.img = b.Build()
	if inj != nil {
		inj.RegisterAll(Sites())
	}
	return c
}

// Sites returns the injection sites in the request path.
func Sites() []faultinject.Site {
	return []faultinject.Site{
		{ID: "web.lookup.hash", Func: "HSH_Lookup", Kind: faultinject.KindValue},
		{ID: "web.lookup.hit", Func: "HSH_Lookup", Kind: faultinject.KindCond},
		{ID: "web.serve.len", Func: "ved_deliver", Kind: faultinject.KindValue},
		{ID: "web.insert.link", Func: "HSH_Insert", Kind: faultinject.KindAction, Modifying: true},
		{ID: "web.insert.size", Func: "HSH_Insert", Kind: faultinject.KindValue, Modifying: true},
		{ID: "web.insert.acct", Func: "HSH_Insert", Kind: faultinject.KindAction, Modifying: true},
		{ID: "web.insert.partial", Func: "HSH_Insert", Kind: faultinject.KindCond, Modifying: true},
		{ID: "web.evict.pick", Func: "EXP_NukeOne", Kind: faultinject.KindCond, Modifying: true},
		{ID: "web.evict.unlink", Func: "EXP_NukeOne", Kind: faultinject.KindAction, Modifying: true},
		{ID: "web.ref.acquire", Func: "HSH_Ref", Kind: faultinject.KindAction},
		{ID: "web.ref.release", Func: "HSH_Deref", Kind: faultinject.KindAction},
		{ID: "web.fetch.guard", Func: "FetchBody", Kind: faultinject.KindCond},
		{ID: "web.fetch.size", Func: "FetchBody", Kind: faultinject.KindValue},
	}
}

// Name implements recovery.App.
func (c *Cache) Name() string { return "webcache-" + c.cfg.Flavor.String() }

// Image implements recovery.App.
func (c *Cache) Image() *linker.Image { return c.img }

// SetPersistence implements recovery.App (no builtin persistence exists).
func (c *Cache) SetPersistence(on bool) { c.persistence = on }

// Stats returns activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns the number of cached objects.
func (c *Cache) Len() uint64 { return c.dict.Len() }

// CachedBytes returns the accounted body bytes.
func (c *Cache) CachedBytes() int64 {
	return int64(c.rt.Proc().AS.ReadU64(c.root + 16))
}

// Main implements recovery.App.
func (c *Cache) Main(rt *core.Runtime) error {
	c.rt = rt
	m := rt.Proc().Machine
	h, err := rt.OpenHeap(heap.Options{Name: "web"})
	if err != nil {
		return fmt.Errorf("webcache: open heap: %w", err)
	}
	c.ctx = simds.NewCtx(h, m.Clock, m.Model)
	as := rt.Proc().AS

	if rt.IsRecoveryMode() {
		m.Clock.Advance(c.cfg.PhoenixBootCost)
		root := rt.RecoveryInfo()
		if root == mem.NullPtr || as.ReadU64(root+24) != rootMagic {
			return fmt.Errorf("webcache: recovery info invalid")
		}
		c.root = root
		c.dict = simds.OpenDict(c.ctx, as.ReadPtr(root))
		c.lru = simds.OpenList(c.ctx, as.ReadPtr(root+8))
		if !c.dict.ValidateHeader() || !c.lru.ValidateHeader() {
			return fmt.Errorf("webcache: preserved cache failed validation")
		}
		if c.cfg.Flavor == FlavorSquid {
			// Section-preserved statics must have survived (with_section).
			if as.ReadU64(c.initVar.Addr) != 1 {
				return fmt.Errorf("webcache: preserved pool table missing")
			}
		}
		// Reset refcounts: preserved objects may carry references from
		// requests of the dead process (§3.4 special handling; the Varnish
		// port's refcount discount). The same walk re-derives the cached-bytes
		// accounting — like refcounts it is transient bookkeeping the dead
		// process may have left mid-update, so it is recomputed rather than
		// trusted (the write only happens when the preserved total is wrong).
		var total uint64
		c.lru.Iterate(func(_ mem.VAddr, payload uint64) bool {
			obj := mem.VAddr(payload)
			if as.ReadU32(obj+objOffRef) != 0 {
				as.WriteU32(obj+objOffRef, 0)
				c.stats.RefResets++
			}
			total += as.ReadU64(obj + objOffLen)
			return true
		})
		if as.ReadU64(root+16) != total {
			as.WriteU64(root+16, total)
		}
		var mark func()
		if c.cfg.Cleanup {
			mark = func() { c.markAll(h) }
		}
		rt.FinishRecovery(mark)
		return nil
	}

	m.Clock.Advance(c.cfg.BootCost)
	c.dict = simds.NewDict(c.ctx, 4096)
	c.lru = simds.NewList(c.ctx)
	c.root = h.Alloc(rootSize)
	if c.root == mem.NullPtr {
		return fmt.Errorf("webcache: root allocation failed")
	}
	as.WritePtr(c.root, c.dict.Addr())
	as.WritePtr(c.root+8, c.lru.Addr())
	as.WriteU64(c.root+16, 0)
	as.WriteU64(c.root+24, rootMagic)
	if c.cfg.Flavor == FlavorSquid {
		as.WriteU64(c.initVar.Addr, 1)
		for i := 0; i < 32; i++ {
			as.WriteU64(c.poolsVar.Addr+mem.VAddr(i*8), uint64(i)*16+1)
		}
	}
	rt.FinishRecovery(nil)
	return nil
}

func (c *Cache) markAll(h *heap.Heap) {
	h.Mark(c.root)
	c.dict.Mark(func(val uint64) {
		obj := mem.VAddr(val)
		h.Mark(obj)
		h.Mark(c.rt.Proc().AS.ReadPtr(obj + objOffKey))
		h.Mark(c.rt.Proc().AS.ReadPtr(obj + objOffBody))
	})
	c.lru.Mark(nil) // object payloads already marked via dict
}

// Handle implements recovery.App.
func (c *Cache) Handle(req *workload.Request) (ok, effective bool) {
	m := c.rt.Proc().Machine
	m.Clock.Advance(m.Model.RequestBase)
	c.inflight = req.Key
	if c.armedBug != "" {
		bug := c.armedBug
		c.armedBug = ""
		c.fireBug(bug)
	}
	if c.armedComp != "" {
		comp := c.armedComp
		c.armedComp = ""
		c.fireComponentCrash(comp)
	}
	c.stats.Gets++
	as := c.rt.Proc().AS
	inj := c.inj

	objVal, found := c.dict.Get([]byte(req.Key))
	if inj != nil {
		objVal = inj.U64("web.lookup.hash", objVal)
		found = inj.Cond("web.lookup.hit", found)
	}
	if found {
		obj := mem.VAddr(objVal)
		// Take a reference while serving (Varnish semantics).
		acquire := func() { as.WriteU32(obj+objOffRef, as.ReadU32(obj+objOffRef)+1) }
		release := func() {
			if r := as.ReadU32(obj + objOffRef); r > 0 {
				as.WriteU32(obj+objOffRef, r-1)
			}
		}
		if inj != nil {
			inj.Do("web.ref.acquire", acquire)
		} else {
			acquire()
		}
		n := int(as.ReadU64(obj + objOffLen))
		if inj != nil {
			n = inj.Int("web.serve.len", n)
			if n < 0 {
				panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "webcache: negative deliver length"})
			}
		}
		body := as.ReadPtr(obj + objOffBody)
		blobLen := c.ctx.BlobLen(body)
		if n > blobLen {
			n = blobLen
		}
		c.ctx.ChargeBytes(n)
		c.lru.MoveToFront(as.ReadPtr(obj + objOffLRU))
		if inj != nil {
			inj.Do("web.ref.release", release) // leaked ref pins the object
		} else {
			release()
		}
		c.stats.Hits++
		return true, true
	}

	// Miss: fetch from the backend.
	c.stats.Misses++
	guard := true
	if inj != nil {
		guard = inj.Cond("web.fetch.guard", true)
	}
	if !guard {
		// Fetch retry loop spins without its exit condition.
		panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "webcache: fetch retry loop never exits"})
	}
	size := req.Size
	if inj != nil {
		size = inj.Int("web.fetch.size", size)
		if size < 0 {
			panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "webcache: bogus content-length"})
		}
	}
	m.Clock.Advance(backendLatency)
	m.Clock.Advance(time.Duration(float64(size) / float64(backendRate) * float64(time.Second)))
	if req.Cacheable {
		c.insert(req.Key, size)
	}
	return true, false
}

// body derives the deterministic object body (backend content) for a URL.
func body(url string, size int) []byte {
	return workload.Value(url, 1, size)
}

// insert stores a fetched object, evicting LRU victims to fit — the cache
// mutation transaction bracketed by the "cache" unsafe region.
func (c *Cache) insert(url string, size int) {
	rt := c.rt
	as := rt.Proc().AS
	inj := c.inj
	if int64(size) > c.cfg.CapacityBytes {
		return
	}
	// NOTE: no defer — a crash must leave the counter raised (§3.5).
	rt.UnsafeBegin("cache")

	// Evict until the object fits.
	for c.CachedBytes()+int64(size) > c.cfg.CapacityBytes {
		victimNode := c.lru.Back()
		pick := victimNode != mem.NullPtr
		if inj != nil {
			pick = inj.Cond("web.evict.pick", pick)
		}
		if !pick {
			break
		}
		obj := mem.VAddr(c.lru.Payload(victimNode))
		if as.ReadU32(obj+objOffRef) != 0 {
			// Referenced objects are not evictable; move on.
			c.lru.MoveToFront(victimNode)
			continue
		}
		unlink := func() { c.evict(obj, victimNode) }
		if inj != nil {
			inj.Do("web.evict.unlink", unlink)
			if _, armed := inj.ArmedAt("web.evict.unlink"); armed && inj.Fired("web.evict.unlink") {
				// The skipped unlink would loop forever retrying the same
				// victim; bail out of the insert instead.
				break
			}
		} else {
			unlink()
		}
	}
	if c.CachedBytes()+int64(size) > c.cfg.CapacityBytes {
		rt.UnsafeEnd("cache")
		return
	}

	data := body(url, size)
	obj := c.ctx.Heap.Alloc(objSize)
	if obj == mem.NullPtr {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "webcache: out of memory"})
	}
	keyBlob := c.ctx.NewBlob([]byte(url))
	bodyBlob := c.ctx.NewBlob(data)
	as.WriteU32(obj+objOffRef, 0)
	as.WriteU32(obj+objOffFlag, 1)
	sz := uint64(size)
	if inj != nil {
		sz = inj.U64("web.insert.size", sz)
	}
	as.WriteU64(obj+objOffLen, sz)
	as.WritePtr(obj+objOffKey, keyBlob)
	as.WritePtr(obj+objOffBody, bodyBlob)
	node := c.lru.PushFront(uint64(obj))
	as.WritePtr(obj+objOffLRU, node)

	link := func() { c.dict.Set([]byte(url), uint64(obj)) }
	acct := func() { as.WriteU64(c.root+16, uint64(c.CachedBytes()+int64(size))) }
	if inj != nil {
		inj.Do("web.insert.link", link)
		inj.Do("web.insert.acct", acct)
	} else {
		link()
		acct()
	}
	// A fault mid-insert scribbles over the body being filled and kills the
	// worker inside the unsafe region.
	if inj != nil && !inj.Cond("web.insert.partial", true) {
		as.WriteU32(bodyBlob+4, 0x44414544)
		panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "webcache: crash during object insert"})
	}
	c.stats.Inserts++
	c.ctx.ChargeBytes(size)
	rt.UnsafeEnd("cache")
}

// evict removes one object entirely.
func (c *Cache) evict(obj, node mem.VAddr) {
	as := c.rt.Proc().AS
	key := c.ctx.BlobBytes(as.ReadPtr(obj + objOffKey))
	size := int64(as.ReadU64(obj + objOffLen))
	c.lru.Remove(node)
	c.dict.Delete(key)
	c.ctx.FreeBlob(as.ReadPtr(obj + objOffKey))
	c.ctx.FreeBlob(as.ReadPtr(obj + objOffBody))
	c.ctx.Heap.Free(obj)
	as.WriteU64(c.root+16, uint64(c.CachedBytes()-size))
	c.stats.Evictions++
}

// Checkpoint implements recovery.App: web caches have no builtin
// persistence (§4.3.3).
func (c *Cache) Checkpoint() {}

// PlanRestart implements recovery.App.
func (c *Cache) PlanRestart(rt *core.Runtime, ci *kernel.CrashInfo, useUnsafe bool) (core.RestartPlan, string) {
	if useUnsafe && !rt.IsSafe("cache") {
		return core.RestartPlan{}, "unsafe region: cache"
	}
	plan := core.RestartPlan{InfoAddr: c.root, WithHeap: true}
	if c.cfg.Flavor == FlavorSquid {
		plan.WithSection = true
	}
	return plan, ""
}

// Reattach implements recovery.App. For Varnish, CRIU restore breaks the
// master–worker handshake (the restored worker's session with the master is
// gone), forcing a full restart — the behaviour §4.3.3 reports.
func (c *Cache) Reattach(rt *core.Runtime) {
	if c.cfg.Flavor == FlavorVarnish {
		panic(&kernel.Crash{Sig: kernel.SIGABRT,
			Reason: "webcache: CLI handshake with master failed after criu restore"})
	}
	c.rt = rt
	proc := rt.Proc()
	m := proc.Machine
	h, err := heap.Attach(proc.AS, core.DefaultHeapBase, heap.Options{Name: "web"})
	if err != nil {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "webcache: criu reattach: " + err.Error()})
	}
	c.ctx = simds.NewCtx(h, m.Clock, m.Model)
	c.dict = simds.OpenDict(c.ctx, proc.AS.ReadPtr(c.root))
	c.lru = simds.OpenList(c.ctx, proc.AS.ReadPtr(c.root+8))
}

// Dump implements recovery.App: URL → body for every cached object.
func (c *Cache) Dump() core.StateDump {
	out := core.StateDump{}
	as := c.rt.Proc().AS
	c.dict.Iterate(func(key []byte, val uint64) bool {
		obj := mem.VAddr(val)
		out[string(key)] = string(c.ctx.BlobBytes(as.ReadPtr(obj + objOffBody)))
		return true
	})
	return out
}

// CrossCheck implements recovery.App: web caches have no default recovery
// that reconstructs content (a restarted cache is empty), so cross-check is
// not applicable (Table 4 lists CC as N/A for Varnish and Squid).
func (c *Cache) CrossCheck(rt *core.Runtime) (core.CrossCheckSpec, bool) {
	return core.CrossCheckSpec{}, false
}

// --- component graph (microreboot support) ---

// Components implements recovery.ComponentApp: the recency component ("lru")
// owns the LRU order and per-object refcounts, and the accounting component
// ("stats") derives the cached-bytes total from the object table. stats
// depends on lru, so killing lru cascades into an accounting rebuild.
func (c *Cache) Components() []recovery.Component {
	return []recovery.Component{
		{Name: "lru"},
		{Name: "stats", Deps: []string{"lru"}},
	}
}

// RebootComponent implements recovery.ComponentApp: the named component's
// transient state is discarded and re-derived from the object table, which is
// the authoritative (preserved) state.
func (c *Cache) RebootComponent(name string) (int, error) {
	as := c.rt.Proc().AS
	n := 0
	switch name {
	case "lru":
		// Discard the recency order and in-flight refcounts: every object is
		// relinked to the front in table order with its refcount cleared
		// (the same refcount discount a process-level recovery applies).
		c.dict.Iterate(func(_ []byte, val uint64) bool {
			obj := mem.VAddr(val)
			if as.ReadU32(obj+objOffRef) != 0 {
				as.WriteU32(obj+objOffRef, 0)
				c.stats.RefResets++
			}
			c.lru.MoveToFront(as.ReadPtr(obj + objOffLRU))
			n++
			return true
		})
		return n, nil
	case "stats":
		// Re-derive the cached-bytes accounting from the object table.
		var total uint64
		c.dict.Iterate(func(_ []byte, val uint64) bool {
			total += as.ReadU64(mem.VAddr(val) + objOffLen)
			n++
			return true
		})
		as.WriteU64(c.root+16, total)
		return n, nil
	}
	return 0, fmt.Errorf("webcache: unknown component %q", name)
}

// VerifyComponents implements recovery.ComponentApp: between requests, no
// component may hold state dangling into another — every object's LRU node
// must round-trip back to the object, the two indexes must agree on size, no
// refcount may survive outside a request, and the accounting total must match
// the object table.
func (c *Cache) VerifyComponents() error {
	as := c.rt.Proc().AS
	if d, l := c.dict.Len(), c.lru.Len(); d != l {
		return fmt.Errorf("webcache: dict has %d objects but lru has %d nodes", d, l)
	}
	var total uint64
	var bad error
	c.dict.Iterate(func(key []byte, val uint64) bool {
		obj := mem.VAddr(val)
		node := as.ReadPtr(obj + objOffLRU)
		if mem.VAddr(c.lru.Payload(node)) != obj {
			bad = fmt.Errorf("webcache: object %q's LRU node dangles", string(key))
			return false
		}
		if r := as.ReadU32(obj + objOffRef); r != 0 {
			bad = fmt.Errorf("webcache: object %q holds %d refs outside any request", string(key), r)
			return false
		}
		total += as.ReadU64(obj + objOffLen)
		return true
	})
	if bad != nil {
		return bad
	}
	if got := as.ReadU64(c.root + 16); got != total {
		return fmt.Errorf("webcache: cached-bytes accounting %d != object total %d", got, total)
	}
	return nil
}

// ArmComponentCrash implements recovery.ComponentApp: the next request
// scribbles over the named component's transient state and dies attributed to
// it.
func (c *Cache) ArmComponentCrash(name string) { c.armedComp = name }

func (c *Cache) fireComponentCrash(comp string) {
	as := c.rt.Proc().AS
	switch comp {
	case "lru":
		// Leak a reference on the hottest object mid-request (the §3.4
		// refcount hazard, scoped to the recency component).
		if front := c.lru.Front(); front != mem.NullPtr {
			obj := mem.VAddr(c.lru.Payload(front))
			as.WriteU32(obj+objOffRef, as.ReadU32(obj+objOffRef)+1)
		}
	case "stats":
		// Tear the accounting mid-update.
		as.WriteU64(c.root+16, as.ReadU64(c.root+16)+977)
	}
	panic(&kernel.Crash{Sig: kernel.SIGABRT,
		Reason: "webcache: fault in component " + comp, Component: comp})
}

// Rewindable implements recovery.RewindableApp: the request path touches only
// simulated memory (the backend fetch just advances the clock), so a rewind
// domain rolls a faulting request back completely.
func (c *Cache) Rewindable() bool { return true }

// --- real-bug scenarios (Table 5, VA1–VA4 and S1–S5) ---

// ArmBug schedules a scripted bug to fire on the next request.
func (c *Cache) ArmBug(name string) { c.armedBug = name }

func (c *Cache) fireBug(name string) {
	as := c.rt.Proc().AS
	switch name {
	case "VA1":
		// Unsynchronized critical section: a racing worker reads a
		// half-initialised session object (Varnish #2434 class).
		as.ReadU64(mem.VAddr(0x18))
	case "VA2":
		// Memory leak: request contexts are never freed; the worker
		// eventually aborts on OOM (Varnish #2495).
		for i := 0; i < 64; i++ {
			if c.ctx.Heap.Alloc(1<<20) == mem.NullPtr {
				break
			}
		}
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "webcache: worker out of memory (leak)"})
	case "VA3":
		// Priority-inversion deadlock stalls the whole pool; the
		// pool-herder watchdog kills the worker after quiet time
		// (Varnish #2796, Figure 11).
		panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "webcache: request pool deadlocked"})
	case "VA4", "S1":
		// Buffer overflow in header parsing: the write runs past a
		// stack buffer (Varnish #3319 / Squid #1517).
		panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "webcache: header buffer overflow"})
	case "S2":
		// Use of a closed descriptor trips an internal assert (Squid #257).
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "webcache: comm_write on closed fd"})
	case "S3":
		// Wrong type passed to a reply handler dereferences a bogus
		// vtable (Squid #3735).
		as.ReadU64(mem.VAddr(0x30))
	case "S4":
		// Missing NUL terminator: the scanner walks past the end of a
		// request buffer (Squid #3869).
		panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "webcache: unterminated string scan"})
	case "S5":
		// An over-strict length assertion aborts on a legal request
		// (Squid #4823).
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "webcache: length check assertion failed"})
	default:
		panic(fmt.Sprintf("webcache: unknown bug %q", name))
	}
}

// PoolValue reads a section-preserved static pool slot (tests).
func (c *Cache) PoolValue(i int) uint64 {
	if c.poolsVar == nil {
		return 0
	}
	return c.rt.Proc().AS.ReadU64(c.poolsVar.Addr + mem.VAddr(i*8))
}
