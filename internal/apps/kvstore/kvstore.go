// Package kvstore is the repository's Redis analogue: a single-threaded
// in-memory key-value server whose dictionary lives in simulated memory.
//
// Preserved state (Table 3): the in-memory KV hash table (plus the
// cross-check redo log). Builtin persistence: RDB-style full snapshots on a
// timer; recovery loads the latest snapshot, losing updates since the save —
// the failure mode of §2.1/Figure 1.
//
// Unsafe regions for the "kv" component bracket the dictionary mutation in
// SET/DEL handlers — the hash-table insertion is "the only unsafe region for
// a SET user request in Redis" (§3.5); the instrumentation placement is
// derived by the static analyzer from the IR model in analyzer_model.pir
// (see internal/analysis).
package kvstore

import (
	"encoding/binary"
	"fmt"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/faultinject"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/simds"
	"phoenix/internal/workload"
)

// Config parameterises the store.
type Config struct {
	// BootCost is the fixed fresh-start initialisation time (config parse,
	// socket setup, worker spawn).
	BootCost time.Duration
	// PhoenixBootCost is the reduced reinitialisation time of a
	// PHOENIX-mode restart (only non-preserved components are rebuilt).
	PhoenixBootCost time.Duration
	// RedoLog maintains the in-memory redo log needed by cross-check
	// validation.
	RedoLog bool
	// Cleanup runs the mark-and-sweep pass after a PHOENIX recovery, off
	// the restart window (core.Cleanup).
	Cleanup bool
}

func (c *Config) fill() {
	if c.BootCost == 0 {
		c.BootCost = 300 * time.Millisecond
	}
	if c.PhoenixBootCost == 0 {
		c.PhoenixBootCost = 30 * time.Millisecond
	}
}

// rdbFile is the snapshot file name.
const rdbFile = "dump.rdb"

// Info-block layout: [0] dict root, [8] redo-log root, [16] magic.
const (
	infoSize  = 24
	infoMagic = 0x7265646973 // "redis"
)

// KV is the store. The value survives simulated restarts; Main rebinds it to
// each process incarnation.
type KV struct {
	cfg Config
	img *linker.Image
	inj *faultinject.Injector

	// Per-incarnation state.
	rt          *core.Runtime
	ctx         *simds.Ctx
	dict        *simds.Dict
	redo        *core.RedoLog
	info        mem.VAddr
	persistence bool

	// armedBug fires a scripted real-bug scenario on the next request.
	armedBug string
	// inflight is the key of the request being processed (lost work the
	// validation tolerates).
	inflight string

	stats Stats
}

// Stats counts store activity.
type Stats struct {
	Gets, Hits, Sets, Dels uint64
	RDBSaves, RDBLoads     uint64
}

// New creates the store program.
func New(cfg Config, inj *faultinject.Injector) *KV {
	cfg.fill()
	b := linker.NewBuilder("kvstore", 0x0010_0000)
	b.Var("kv.config", 64, linker.SecData)
	kv := &KV{cfg: cfg, img: b.Build(), inj: inj}
	if inj != nil {
		inj.RegisterAll(Sites())
	}
	return kv
}

// Sites returns the injection sites compiled into the request path.
// Modifying-phase sites sit inside the kv unsafe region; read-phase sites do
// not.
func Sites() []faultinject.Site {
	return []faultinject.Site{
		{ID: "kv.get.probe", Func: "lookupKey", Kind: faultinject.KindCond},
		{ID: "kv.get.copy", Func: "lookupKey", Kind: faultinject.KindValue},
		{ID: "kv.get.scan", Func: "lookupKey", Kind: faultinject.KindCond},
		{ID: "kv.set.vallen", Func: "setGenericCommand", Kind: faultinject.KindValue, Modifying: true},
		{ID: "kv.set.store", Func: "dictSetVal", Kind: faultinject.KindAction, Modifying: true},
		{ID: "kv.set.link", Func: "dictAdd", Kind: faultinject.KindAction, Modifying: true},
		{ID: "kv.set.freeold", Func: "setGenericCommand", Kind: faultinject.KindAction, Modifying: true},
		{ID: "kv.set.resize", Func: "dictExpand", Kind: faultinject.KindCond, Modifying: true},
		{ID: "kv.del.unlink", Func: "dictDelete", Kind: faultinject.KindAction, Modifying: true},
		{ID: "kv.del.found", Func: "dictDelete", Kind: faultinject.KindCond, Modifying: true},
		{ID: "kv.req.dispatch", Func: "processCommand", Kind: faultinject.KindCond},
		{ID: "kv.req.arity", Func: "processCommand", Kind: faultinject.KindValue},
		{ID: "kv.redo.append", Func: "feedAppendOnlyFile", Kind: faultinject.KindAction, Modifying: true},
	}
}

// Name implements recovery.App.
func (kv *KV) Name() string { return "kvstore" }

// Image implements recovery.App.
func (kv *KV) Image() *linker.Image { return kv.img }

// SetPersistence implements recovery.App.
func (kv *KV) SetPersistence(on bool) { kv.persistence = on }

// Stats returns activity counters.
func (kv *KV) Stats() Stats { return kv.stats }

// Runtime returns the live runtime (for tests and experiments).
func (kv *KV) Runtime() *core.Runtime { return kv.rt }

// Ctx exposes the data-structure context (tests).
func (kv *KV) Ctx() *simds.Ctx { return kv.ctx }

// Main implements recovery.App: Figure 2's integration, in Go.
func (kv *KV) Main(rt *core.Runtime) error {
	kv.rt = rt
	m := rt.Proc().Machine
	h, err := rt.OpenHeap(heap.Options{Name: "kv"})
	if err != nil {
		return fmt.Errorf("kvstore: open heap: %w", err)
	}
	kv.ctx = simds.NewCtx(h, m.Clock, m.Model)

	if rt.IsRecoveryMode() {
		// PHOENIX path: adopt the preserved dictionary by pointer.
		m.Clock.Advance(kv.cfg.PhoenixBootCost)
		info := rt.RecoveryInfo()
		if info == mem.NullPtr || rt.Proc().AS.ReadU64(info+16) != infoMagic {
			return fmt.Errorf("kvstore: recovery info invalid")
		}
		kv.info = info
		kv.dict = simds.OpenDict(kv.ctx, rt.Proc().AS.ReadPtr(info))
		if redoRoot := rt.Proc().AS.ReadPtr(info + 8); redoRoot != mem.NullPtr {
			kv.redo = core.OpenRedoLog(kv.ctx, redoRoot)
		}
		// Cheap integrity gate, as a real server would do: header sanity
		// only. Deep corruption that slipped past the unsafe-region check
		// surfaces later on access (and is what cross-check validation is
		// for).
		if !kv.dict.ValidateHeader() {
			return fmt.Errorf("kvstore: preserved dictionary failed validation")
		}
		var mark func()
		if kv.cfg.Cleanup {
			mark = func() {
				kv.dict.Mark(func(val uint64) { h.Mark(mem.VAddr(val)) })
				if kv.redo != nil {
					kv.redo.Mark()
				}
				h.Mark(kv.info)
			}
		}
		rt.FinishRecovery(mark)
		return nil
	}

	// Fresh start (vanilla, builtin, or fallback): full initialisation.
	m.Clock.Advance(kv.cfg.BootCost)
	kv.dict = simds.NewDict(kv.ctx, 1024)
	kv.redo = nil
	if kv.cfg.RedoLog {
		kv.redo = core.NewRedoLog(kv.ctx)
	}
	kv.info = kv.ctx.Heap.Alloc(infoSize)
	if kv.info == mem.NullPtr {
		return fmt.Errorf("kvstore: info block allocation failed")
	}
	kv.writeInfo()

	if kv.persistence {
		kv.loadRDB()
	}
	rt.FinishRecovery(nil)
	return nil
}

func (kv *KV) writeInfo() {
	as := kv.rt.Proc().AS
	as.WritePtr(kv.info, kv.dict.Addr())
	if kv.redo != nil {
		as.WritePtr(kv.info+8, kv.redo.Addr())
	} else {
		as.WritePtr(kv.info+8, mem.NullPtr)
	}
	as.WriteU64(kv.info+16, infoMagic)
}

// Load seeds the store with the initial dataset (the YCSB load phase).
func (kv *KV) Load(keys []string, valueSize int) {
	for _, k := range keys {
		kv.setKey(k, workload.Value(k, 1, valueSize), false)
	}
}

// Handle implements recovery.App.
func (kv *KV) Handle(req *workload.Request) (ok, effective bool) {
	m := kv.rt.Proc().Machine
	m.Clock.Advance(m.Model.RequestBase)
	kv.inflight = req.Key
	if kv.armedBug != "" {
		bug := kv.armedBug
		kv.armedBug = ""
		kv.fireBug(bug)
	}
	inj := kv.inj
	// Command dispatch: a perturbed dispatch misroutes the request — the
	// "passing a wrong data type to a read-only function" class.
	if inj != nil && !inj.Cond("kv.req.dispatch", true) {
		// Misdispatch: treat as an unknown command; client gets an error.
		return false, false
	}
	switch req.Op {
	case workload.OpRead:
		return kv.handleGet(req)
	case workload.OpInsert, workload.OpUpdate:
		return kv.handleSet(req)
	case workload.OpDelete:
		return kv.handleDel(req)
	}
	return false, false
}

func (kv *KV) handleGet(req *workload.Request) (bool, bool) {
	kv.stats.Gets++
	inj := kv.inj
	key := req.Key
	if inj != nil {
		// A corrupted arity/length computation reads past the key buffer —
		// temporary-state failure (crash in read path, outside unsafe
		// region).
		if n := inj.Int("kv.req.arity", len(key)); n != len(key) {
			if n < 0 || n > len(key)+16 {
				panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "kv: read past request buffer"})
			}
			if n <= len(key) {
				key = key[:n]
			}
		}
	}
	valPtr, found := kv.dict.Get([]byte(key))
	if inj != nil {
		found = inj.Cond("kv.get.probe", found)
		if inj != nil && !inj.Cond("kv.get.scan", true) {
			// Inverted scan guard: the lookup loop never terminates.
			panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "kv: lookup loop never terminates"})
		}
	}
	if !found {
		return true, false
	}
	// Copy the value out (the reply path).
	addr := mem.VAddr(valPtr)
	if inj != nil {
		addr = mem.VAddr(inj.U64("kv.get.copy", uint64(addr)))
	}
	val := kv.ctx.BlobBytes(addr) // faults if addr was perturbed
	kv.ctx.ChargeBytes(len(val))
	kv.stats.Hits++
	return true, true
}

func (kv *KV) handleSet(req *workload.Request) (bool, bool) {
	kv.stats.Sets++
	kv.setKey(req.Key, req.Value, true)
	return true, true
}

// setKey performs the dictionary mutation inside the kv unsafe region.
func (kv *KV) setKey(key string, value []byte, log bool) {
	inj := kv.inj
	rt := kv.rt
	if inj != nil {
		value = append([]byte(nil), value...)
		if n := inj.Int("kv.set.vallen", len(value)); n != len(value) && n >= 0 && n < len(value) {
			value = value[:n] // silently truncated payload: corruption
		}
	}
	// Stage the write before entering the unsafe region: the value blob is
	// allocated and filled, and the redo record encoded, while the durable
	// chains are still untouched. A crash during staging leaves the
	// dictionary and redo log exactly consistent — the staged blob is
	// unreferenced garbage the recovery sweep reclaims — so only the
	// chain-linking instants below need the unsafe bracket. This is what
	// makes the whole handler rewind-safe: everything it mutates lives in
	// simulated memory, and nothing durable changes until the publish step.
	newBlob := kv.ctx.NewBlob(value)
	var redoRec []byte
	if log && kv.redo != nil {
		redoRec = encodeRedo('S', key, value)
	}
	// NOTE: no defer — a crash inside the region must leave the counter
	// raised so the restart handler sees the mid-update state, exactly as
	// the C instrumentation behaves (no cleanup runs on SIGSEGV).
	rt.UnsafeBegin("kv")
	doSet := func() {
		old, existed := kv.dict.Set([]byte(key), uint64(newBlob))
		if existed {
			free := func() { kv.ctx.FreeBlob(mem.VAddr(old)) }
			if inj != nil {
				inj.Do("kv.set.freeold", free) // skipped free = leak
			} else {
				free()
			}
		}
	}
	if inj != nil {
		inj.Do("kv.set.link", doSet) // skipped link = lost update + leaked blob
	} else {
		doSet()
	}
	// A fault striking mid-resize leaves a partially rewritten entry: the
	// value pointer dangles and the process dies inside the unsafe region —
	// the partial-update hazard of §2.3 Finding 2.
	if inj != nil && !inj.Cond("kv.set.resize", true) {
		kv.dict.Set([]byte(key), uint64(0xDEAD0000))
		panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "kv: crash during dict resize"})
	}
	if redoRec != nil {
		append_ := func() { kv.redo.Append(redoRec) }
		if inj != nil {
			inj.Do("kv.redo.append", append_)
		} else {
			append_()
		}
	}
	rt.UnsafeEnd("kv")
}

func (kv *KV) handleDel(req *workload.Request) (bool, bool) {
	kv.stats.Dels++
	rt := kv.rt
	inj := kv.inj
	// Stage the redo record before the unsafe region, mirroring setKey: the
	// unsafe bracket covers only the in-place chain surgery.
	var redoRec []byte
	if kv.redo != nil {
		redoRec = encodeRedo('D', req.Key, nil)
	}
	rt.UnsafeBegin("kv")
	old, found := kv.dict.Delete([]byte(req.Key))
	if inj != nil {
		found = inj.Cond("kv.del.found", found)
	}
	if found && old != 0 {
		free := func() { kv.ctx.FreeBlob(mem.VAddr(old)) }
		if inj != nil {
			inj.Do("kv.del.unlink", free)
		} else {
			free()
		}
	}
	if redoRec != nil && found {
		kv.redo.Append(redoRec)
	}
	rt.UnsafeEnd("kv")
	return true, found
}

// Rewindable implements recovery.RewindableApp: every byte a request
// handler mutates — dictionary chains, redo log, and the allocator
// metadata under both — lives in simulated memory, so a rewind-domain
// discard rolls a faulting request back byte-exactly. Writes
// are staged before publication (setKey/handleDel), so even the blast
// radius of a mid-request crash is an unreferenced staged blob, and the
// harness resets the unsafe counters after a successful discard to match
// the restored memory.
func (kv *KV) Rewindable() bool { return true }

// --- builtin persistence (RDB) ---

// Checkpoint implements recovery.App: the RDB save, modelled as Redis's
// BGSAVE — the server forks (a brief copy-on-write pause proportional to
// resident pages) and the child serializes and writes the snapshot off the
// critical path. Only the fork pause stalls request processing, which is
// why builtin persistence costs a few percent while CRIU's stop-the-world
// dump costs tens (Table 8).
func (kv *KV) Checkpoint() {
	if !kv.persistence {
		return
	}
	m := kv.rt.Proc().Machine
	// Fork pause on the main timeline.
	pages := kv.rt.Proc().AS.ResidentPages()
	m.Clock.Advance(time.Duration(pages) * m.Model.ForkPerPage)
	// Child serializes and writes concurrently.
	m.Clock.RunOffline(func() {
		// One buffer, sized from the previous image with an eighth to
		// spare so a store that grew since is not copied again: the
		// header's record count is patched in place once the walk has
		// produced it.
		prev := max(m.Disk.Size(rdbFile), 0)
		img := make([]byte, 8, prev+prev/8+8)
		var count uint64
		kv.dict.Iterate(func(key []byte, val uint64) bool {
			v := mem.VAddr(val)
			img = binary.LittleEndian.AppendUint32(img, uint32(len(key)))
			img = append(img, key...)
			img = binary.LittleEndian.AppendUint32(img, uint32(kv.ctx.BlobLen(v)))
			img = kv.ctx.AppendBlob(img, v)
			count++
			return true
		})
		binary.LittleEndian.PutUint64(img, count)
		m.Clock.Advance(time.Duration(len(img)) * m.Model.MarshalPerByte)
		m.Disk.WriteFile(rdbFile, img)
	})
	if kv.redo != nil {
		kv.redo.Truncate()
	}
	kv.stats.RDBSaves++
}

// loadRDB is the builtin recovery path: read the snapshot, unmarshal, and
// rebuild the dictionary — the expensive reconstruction of §2.1.
func (kv *KV) loadRDB() {
	m := kv.rt.Proc().Machine
	img, ok := m.Disk.ReadFile(rdbFile)
	if !ok {
		return
	}
	recs, err := decodeRDB(img)
	if err != nil {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "kv: corrupt RDB: " + err.Error()})
	}
	m.Clock.Advance(time.Duration(len(img)) * m.Model.UnmarshalPerByte)
	m.Clock.Advance(time.Duration(len(recs)) * m.Model.UnmarshalPerObject)
	for _, r := range recs {
		kv.setKey(r.Key, r.Val, false)
	}
	kv.stats.RDBLoads++
}

// record is one RDB entry.
type record struct {
	Key string
	Val []byte
}

// decodeRDB parses a snapshot image: an 8-byte record count, then each
// record's key and value as length-prefixed fields.
func decodeRDB(img []byte) ([]record, error) {
	if len(img) < 8 {
		return nil, fmt.Errorf("short header")
	}
	count := binary.LittleEndian.Uint64(img)
	img = img[8:]
	recs := make([]record, 0, count)
	for i := uint64(0); i < count; i++ {
		var key, val []byte
		var err error
		key, img, err = takeField(img)
		if err != nil {
			return nil, err
		}
		val, img, err = takeField(img)
		if err != nil {
			return nil, err
		}
		recs = append(recs, record{Key: string(key), Val: val})
	}
	return recs, nil
}

func takeField(img []byte) ([]byte, []byte, error) {
	if len(img) < 4 {
		return nil, nil, fmt.Errorf("truncated field length")
	}
	n := binary.LittleEndian.Uint32(img)
	img = img[4:]
	if uint32(len(img)) < n {
		return nil, nil, fmt.Errorf("truncated field body")
	}
	return img[:n], img[n:], nil
}

func encodeRedo(op byte, key string, val []byte) []byte {
	out := []byte{op}
	var lk [4]byte
	binary.LittleEndian.PutUint32(lk[:], uint32(len(key)))
	out = append(out, lk[:]...)
	out = append(out, key...)
	return append(out, val...)
}

func decodeRedo(rec []byte) (op byte, key string, val []byte, err error) {
	if len(rec) < 5 {
		return 0, "", nil, fmt.Errorf("short redo record")
	}
	op = rec[0]
	n := binary.LittleEndian.Uint32(rec[1:5])
	if uint32(len(rec)-5) < n {
		return 0, "", nil, fmt.Errorf("truncated redo key")
	}
	return op, string(rec[5 : 5+n]), rec[5+n:], nil
}

// --- PHOENIX integration ---

// PlanRestart implements recovery.App: the restart handler of Figure 2.
func (kv *KV) PlanRestart(rt *core.Runtime, ci *kernel.CrashInfo, useUnsafe bool) (core.RestartPlan, string) {
	if useUnsafe && !rt.IsSafe("kv") {
		return core.RestartPlan{}, "unsafe region: kv"
	}
	// The handler collects the preservation roots into the info block (it
	// is refreshed here in case roots moved since boot).
	kv.writeInfo()
	return core.RestartPlan{InfoAddr: kv.info, WithHeap: true}, ""
}

// Reattach implements recovery.App (CRIU restore: addresses unchanged).
func (kv *KV) Reattach(rt *core.Runtime) {
	kv.rt = rt
	proc := rt.Proc()
	m := proc.Machine
	h, err := heap.Attach(proc.AS, core.DefaultHeapBase, heap.Options{Name: "kv"})
	if err != nil {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "kv: criu reattach: " + err.Error()})
	}
	kv.ctx = simds.NewCtx(h, m.Clock, m.Model)
	kv.dict = simds.OpenDict(kv.ctx, proc.AS.ReadPtr(kv.info))
	if kv.redo != nil {
		kv.redo = core.OpenRedoLog(kv.ctx, proc.AS.ReadPtr(kv.info+8))
	}
}

// Dump implements recovery.App: the end-to-end dataset dump used for
// injection validation ("request all keys that should be present", §4.4).
func (kv *KV) Dump() core.StateDump {
	out := core.StateDump{}
	kv.dict.Iterate(func(key []byte, val uint64) bool {
		out[string(key)] = string(kv.ctx.BlobBytes(mem.VAddr(val)))
		return true
	})
	return out
}

// CrossCheck implements recovery.App (§3.6): the reference state is the RDB
// snapshot replayed forward with the in-memory redo log.
func (kv *KV) CrossCheck(rt *core.Runtime) (core.CrossCheckSpec, bool) {
	if kv.redo == nil || !kv.persistence {
		return core.CrossCheckSpec{}, false
	}
	m := rt.Proc().Machine
	info := kv.info
	cfg := kv.cfg
	spec := core.CrossCheckSpec{
		SnapshotDump: func(snap *mem.AddressSpace) core.StateDump {
			h, err := heap.Attach(snap, core.DefaultHeapBase, heap.Options{Name: "kv"})
			if err != nil {
				return core.StateDump{"<snapshot>": "unattachable: " + err.Error()}
			}
			c := simds.NewCtx(h, nil, m.Model)
			d := simds.OpenDict(c, snap.ReadPtr(info))
			out := core.StateDump{}
			func() {
				defer func() {
					if recover() != nil {
						out["<snapshot>"] = "corrupt"
					}
				}()
				d.Iterate(func(key []byte, val uint64) bool {
					out[string(key)] = string(c.BlobBytes(mem.VAddr(val)))
					return true
				})
			}()
			return out
		},
		ReferenceRecover: func() (core.StateDump, time.Duration) {
			ref := core.StateDump{}
			dur := m.Clock.RunOffline(func() {
				img, ok := m.Disk.ReadFile(rdbFile)
				if ok {
					if recs, err := decodeRDB(img); err == nil {
						m.Clock.Advance(time.Duration(len(img)) * m.Model.UnmarshalPerByte)
						m.Clock.Advance(time.Duration(len(recs)) * m.Model.UnmarshalPerObject)
						for _, r := range recs {
							ref[r.Key] = string(r.Val)
						}
					}
				}
				// Replay the preserved in-memory redo log on top.
				if kv.redo != nil {
					kv.redo.Replay(func(rec []byte) bool {
						m.Clock.Advance(m.Model.LogReplayPerRecord)
						op, key, val, err := decodeRedo(rec)
						if err != nil {
							return true
						}
						switch op {
						case 'S':
							ref[key] = string(val)
						case 'D':
							delete(ref, key)
						}
						return true
					})
				}
				m.Clock.Advance(cfg.BootCost)
			})
			return ref, dur
		},
		InFlightKeys: map[string]bool{kv.inflight: true},
	}
	return spec, true
}

// RestoreReference implements recovery.ReferenceRestorer: after a
// cross-check mismatch the system hot-switches to the background process,
// whose state is the validated S_r. We rebuild the store from that dump.
func (kv *KV) RestoreReference(rt *core.Runtime, ref core.StateDump) error {
	if err := kv.Main(rt); err != nil {
		return err
	}
	for k, v := range ref {
		kv.setKey(k, []byte(v), false)
	}
	return nil
}

// --- real-bug scenarios (Table 5, R1–R4) ---

// ArmBug schedules a scripted bug to fire on the next request. Valid names:
// R1 (OOM via integer overflow), R2 (unsanitized memory overwrite inside the
// unsafe region), R3 (null-pointer dereference on temporary state), R4
// (infinite loop / hang).
func (kv *KV) ArmBug(name string) { kv.armedBug = name }

func (kv *KV) fireBug(name string) {
	switch name {
	case "R1":
		// Integer overflow in a size computation requests an absurd
		// allocation; the allocator reports OOM (Redis #761 class). Even on
		// an uncapped heap the subsequent buffer fill exhausts memory, so
		// the failure always manifests as an abort on temporary state.
		n := int(uint32(1<<31 - 16))
		p := kv.ctx.Heap.Alloc(n)
		if p != mem.NullPtr {
			kv.ctx.Heap.Free(p)
		}
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "kv: OOM allocating oversized buffer (int overflow)"})
	case "R2":
		// Unsanitized offset overwrites dictionary memory mid-update: the
		// crash lands inside the kv unsafe region, so PHOENIX must fall
		// back (Redis #7445 class; the one fallback case in §4.3.2).
		kv.rt.UnsafeBegin("kv")
		// Corrupt the dict header's bucket pointer with a wild value.
		kv.rt.Proc().AS.WriteU64(kv.dict.Addr()+16, 0xDEAD0000)
		panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "kv: unsanitized write past buffer"})
	case "R3":
		// Null pointer dereference on a request-scoped object (Redis
		// #10070 class): temporary state only.
		kv.rt.Proc().AS.ReadU64(mem.NullPtr + 8)
	case "R4":
		// Infinite loop on one request (Redis #12290): the watchdog ends
		// it (Figure 1/12).
		panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "kv: infinite loop in stream handler"})
	default:
		panic(fmt.Sprintf("kvstore: unknown bug %q", name))
	}
}

// Len returns the number of live keys.
func (kv *KV) Len() uint64 { return kv.dict.Len() }
