// Package lsmdb is the repository's LevelDB analogue: an LSM-tree store
// with a write-ahead log, an in-memory skiplist memtable (the preserved
// state of Table 3), and sorted-run files flushed when the memtable fills.
//
// Builtin recovery replays the WAL into a fresh memtable — the log replay
// that dominates LevelDB's restart time (§4.2.1). PHOENIX preserves the
// skiplist instead, recovering the same progress as the replay with
// none of its cost (§4.3.3): because every update appends to the WAL before
// mutating the memtable inside one unsafe region, a preserved memtable is
// always equivalent to a full replay.
package lsmdb

import (
	"encoding/binary"
	"fmt"
	"sort"
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
	// MemtableThreshold is the payload size that triggers a flush.
	MemtableThreshold uint64
	// BootCost / PhoenixBootCost mirror kvstore's initialisation split.
	BootCost        time.Duration
	PhoenixBootCost time.Duration
	// Cleanup runs mark-and-sweep after a PHOENIX recovery, off the restart
	// window (core.Cleanup).
	Cleanup bool
}

func (c *Config) fill() {
	if c.MemtableThreshold == 0 {
		c.MemtableThreshold = 4 << 20
	}
	if c.BootCost == 0 {
		c.BootCost = 120 * time.Millisecond
	}
	if c.PhoenixBootCost == 0 {
		c.PhoenixBootCost = 15 * time.Millisecond
	}
}

const walFile = "lsm.wal"

// Info-block layout: [0] memtable root, [8] WAL sequence number mirror,
// [16] magic.
const (
	infoSize  = 24
	infoMagic = 0x6c73_6d64_62 // "lsmdb"
)

// sst is the Go-side handle of one flushed sorted run. The authoritative
// contents live on the simulated disk; min/max keys enable cheap routing.
type sst struct {
	name     string
	min, max string
	bytes    int64
	records  int
}

// DB is the store program.
type DB struct {
	cfg Config
	img *linker.Image
	inj *faultinject.Injector

	rt          *core.Runtime
	ctx         *simds.Ctx
	mt          *simds.Skiplist
	info        mem.VAddr
	persistence bool

	ssts    []sst // newest first
	nextSST int

	// walMark is the WAL length at the top of the in-flight request, the
	// truncation floor AfterRewind repairs the log back to.
	walMark int64

	armedBug  string
	armedComp string
	inflight  string

	stats Stats
}

// Stats counts store activity.
type Stats struct {
	Puts, Gets, Hits uint64
	Flushes          uint64
	Compactions      uint64
	WALReplays       uint64
	WALRecords       uint64
}

// New creates the program.
func New(cfg Config, inj *faultinject.Injector) *DB {
	cfg.fill()
	b := linker.NewBuilder("lsmdb", 0x0010_0000)
	b.Var("lsm.options", 64, linker.SecData)
	db := &DB{cfg: cfg, img: b.Build(), inj: inj}
	if inj != nil {
		inj.RegisterAll(Sites())
	}
	return db
}

// Sites returns the injection sites in the write/read paths.
func Sites() []faultinject.Site {
	return []faultinject.Site{
		{ID: "lsm.put.walenc", Func: "AddRecord", Kind: faultinject.KindValue, Modifying: true},
		{ID: "lsm.put.walappend", Func: "AddRecord", Kind: faultinject.KindAction, Modifying: true},
		{ID: "lsm.put.insert", Func: "SkipList::Insert", Kind: faultinject.KindAction, Modifying: true},
		{ID: "lsm.put.batchsize", Func: "WriteBatch::Put", Kind: faultinject.KindValue},
		{ID: "lsm.put.compare", Func: "SkipList::FindGreaterOrEqual", Kind: faultinject.KindCond},
		{ID: "lsm.put.room", Func: "MakeRoomForWrite", Kind: faultinject.KindCond},
		{ID: "lsm.flush.trigger", Func: "MakeRoomForWrite", Kind: faultinject.KindCond, Modifying: true},
		{ID: "lsm.put.partial", Func: "MemTable::Add", Kind: faultinject.KindCond, Modifying: true},
		{ID: "lsm.flush.drop", Func: "WriteLevel0Table", Kind: faultinject.KindAction, Modifying: true},
		{ID: "lsm.get.seek", Func: "SkipList::Seek", Kind: faultinject.KindCond},
		{ID: "lsm.get.route", Func: "Version::Get", Kind: faultinject.KindCond},
		{ID: "lsm.get.decode", Func: "BlockReader", Kind: faultinject.KindValue},
		{ID: "lsm.lock.release", Func: "DBImpl::Write", Kind: faultinject.KindAction},
	}
}

// Name implements recovery.App.
func (db *DB) Name() string { return "lsmdb" }

// Image implements recovery.App.
func (db *DB) Image() *linker.Image { return db.img }

// SetPersistence implements recovery.App.
func (db *DB) SetPersistence(on bool) { db.persistence = on }

// Stats returns activity counters.
func (db *DB) Stats() Stats { return db.stats }

// Len returns the number of memtable entries.
func (db *DB) Len() uint64 { return db.mt.Len() }

// Main implements recovery.App.
func (db *DB) Main(rt *core.Runtime) error {
	db.rt = rt
	m := rt.Proc().Machine
	h, err := rt.OpenHeap(heap.Options{Name: "lsm"})
	if err != nil {
		return fmt.Errorf("lsmdb: open heap: %w", err)
	}
	db.ctx = simds.NewCtx(h, m.Clock, m.Model)

	if rt.IsRecoveryMode() {
		m.Clock.Advance(db.cfg.PhoenixBootCost)
		info := rt.RecoveryInfo()
		if info == mem.NullPtr || rt.Proc().AS.ReadU64(info+16) != infoMagic {
			return fmt.Errorf("lsmdb: recovery info invalid")
		}
		db.info = info
		db.mt = simds.OpenSkiplist(db.ctx, rt.Proc().AS.ReadPtr(info))
		if !db.mt.ValidateHeader() {
			return fmt.Errorf("lsmdb: preserved memtable failed validation")
		}
		var mark func()
		if db.cfg.Cleanup {
			mark = func() {
				db.mt.Mark()
				h.Mark(db.info)
			}
		}
		rt.FinishRecovery(mark)
		return nil
	}

	m.Clock.Advance(db.cfg.BootCost)
	db.mt = simds.NewSkiplist(db.ctx, 0x5eed)
	db.info = h.Alloc(infoSize)
	if db.info == mem.NullPtr {
		return fmt.Errorf("lsmdb: info block allocation failed")
	}
	db.writeInfo()
	if db.persistence {
		db.replayWAL()
	}
	rt.FinishRecovery(nil)
	return nil
}

func (db *DB) writeInfo() {
	as := db.rt.Proc().AS
	as.WritePtr(db.info, db.mt.Addr())
	as.WriteU64(db.info+16, infoMagic)
}

// replayWAL is the builtin recovery path: sequential read plus per-record
// replay into a fresh memtable.
func (db *DB) replayWAL() {
	m := db.rt.Proc().Machine
	data, ok := m.Disk.ReadFile(walFile)
	if !ok {
		return
	}
	recs, err := decodeWAL(data)
	if err != nil {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "lsmdb: corrupt WAL: " + err.Error()})
	}
	m.Clock.Advance(time.Duration(len(recs)) * m.Model.LogReplayPerRecord)
	for _, r := range recs {
		db.mt.Insert([]byte(r.Key), mtEncode(r.Val))
	}
	db.stats.WALReplays++
	db.stats.WALRecords += uint64(len(recs))
}

// Handle implements recovery.App.
func (db *DB) Handle(req *workload.Request) (ok, effective bool) {
	m := db.rt.Proc().Machine
	m.Clock.Advance(m.Model.RequestBase)
	db.inflight = req.Key
	db.walMark = m.Disk.Size(walFile)
	if db.armedComp != "" {
		comp := db.armedComp
		db.armedComp = ""
		db.fireComponentCrash(comp)
	}
	if db.armedBug != "" {
		bug := db.armedBug
		db.armedBug = ""
		db.fireBug(bug)
	}
	switch req.Op {
	case workload.OpInsert, workload.OpUpdate:
		db.put(req.Key, req.Value)
		return true, true
	case workload.OpRead:
		return db.get(req.Key)
	case workload.OpDelete:
		db.put(req.Key, nil) // tombstone
		return true, true
	}
	return false, false
}

// put appends to the WAL then inserts into the memtable — one transaction
// bracketed by the "ldb" unsafe region, which (per the §3.5 limitation)
// explicitly includes the file write.
func (db *DB) put(key string, val []byte) {
	rt := db.rt
	m := rt.Proc().Machine
	inj := db.inj
	db.stats.Puts++

	rec := encodeWALRecord(key, val)
	if inj != nil {
		if n := inj.Int("lsm.put.walenc", len(rec)); n >= 0 && n < len(rec) {
			rec = rec[:n] // truncated WAL record: corruption on disk
		}
		// WriteBatch assembly and the memtable seek run before any
		// modification — the read-only majority of the write path that
		// unsafe regions explicitly exclude (§3.5: LevelDB spends 27.5%
		// of fillseq time making updates; the rest is here).
		if n := inj.Int("lsm.put.batchsize", len(rec)); n < 0 {
			panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "lsmdb: bogus write-batch size"})
		}
		if !inj.Cond("lsm.put.compare", true) {
			panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "lsmdb: comparator walked past node"})
		}
		if !inj.Cond("lsm.put.room", true) {
			panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "lsmdb: MakeRoomForWrite waits forever"})
		}
	}
	// NOTE: no defer — a crash must leave the counter raised (§3.5); the C
	// instrumentation runs no cleanup on a fatal signal.
	rt.UnsafeBegin("ldb")
	appendWAL := func() { m.Disk.Append(walFile, rec) }
	insert := func() { db.mt.Insert([]byte(key), mtEncode(val)) }
	if inj != nil {
		inj.Do("lsm.put.walappend", appendWAL)
		inj.Do("lsm.put.insert", insert)
	} else {
		appendWAL()
		insert()
	}
	// A fault mid-insert leaves a half-written value in the memtable and
	// kills the writer inside the unsafe region.
	if inj != nil && !inj.Cond("lsm.put.partial", true) {
		db.mt.Insert([]byte(key), mtEncode([]byte("\xde\xad")))
		panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "lsmdb: crash during memtable insert"})
	}
	if inj != nil && !inj.Cond("lsm.lock.release", true) {
		// The write-queue lock is never released: every later writer
		// blocks (LevelDB issue #245 class).
		panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "lsmdb: writer lock never released"})
	}

	flush := db.mt.PayloadBytes() >= db.cfg.MemtableThreshold
	if inj != nil {
		flush = inj.Cond("lsm.flush.trigger", flush)
	}
	if flush {
		db.flush()
	}
	rt.UnsafeEnd("ldb")
}

// flush writes the memtable as a sorted run and truncates the WAL.
func (db *DB) flush() {
	m := db.rt.Proc().Machine
	var buf []byte
	var minKey, maxKey string
	n := 0
	db.mt.IterAll(func(k, v []byte) bool {
		if n == 0 {
			minKey = string(k)
		}
		maxKey = string(k)
		val, tomb := mtDecode(v)
		if tomb {
			val = nil
		}
		buf = appendKV(buf, k, val)
		n++
		return true
	})
	if n == 0 {
		return
	}
	name := fmt.Sprintf("sst-%06d", db.nextSST)
	db.nextSST++
	m.Clock.Advance(time.Duration(len(buf)) * m.Model.MarshalPerByte)
	write := func() {
		m.Disk.WriteFile(name, buf)
		if db.persistence {
			m.Disk.WriteFile(walFile, nil)
		}
	}
	if db.inj != nil {
		db.inj.Do("lsm.flush.drop", write) // dropped flush = lost run
	} else {
		write()
	}
	db.ssts = append([]sst{{name: name, min: minKey, max: maxKey, bytes: int64(len(buf)), records: n}}, db.ssts...)
	// Drop the flushed memtable and start a fresh one.
	db.mt.FreeAll()
	db.mt = simds.NewSkiplist(db.ctx, uint64(db.nextSST)*0x9E37+1)
	db.writeInfo()
	db.stats.Flushes++
	db.maybeCompact()
}

// get consults the memtable then routes to sorted runs.
func (db *DB) get(key string) (ok, effective bool) {
	db.stats.Gets++
	inj := db.inj
	if inj != nil && !inj.Cond("lsm.get.seek", true) {
		panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "lsmdb: seek loop never terminates"})
	}
	if v, found := db.mt.Get([]byte(key)); found {
		if _, tomb := mtDecode(v); tomb {
			return true, false
		}
		db.stats.Hits++
		return true, true
	}
	m := db.rt.Proc().Machine
	for _, s := range db.ssts {
		inRange := s.min <= key && key <= s.max
		if inj != nil {
			inRange = inj.Cond("lsm.get.route", inRange)
		}
		if !inRange {
			continue
		}
		// One table read: index block + data block.
		m.Clock.Advance(m.Model.DiskLatency)
		data, found := m.Disk.ReadFile(s.name)
		if !found {
			continue
		}
		val, hit := lookupRun(data, key)
		if hit {
			if inj != nil {
				if n := inj.Int("lsm.get.decode", len(val)); n != len(val) && (n < 0 || n > len(val)) {
					panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "lsmdb: block decode out of bounds"})
				}
			}
			if val == nil {
				return true, false
			}
			db.stats.Hits++
			return true, true
		}
	}
	return true, false
}

// --- persistence encoding ---

// mtEncode tags a memtable value: blobs cannot distinguish nil from empty,
// so tombstones carry an explicit type byte (as LevelDB's internal keys do).
func mtEncode(val []byte) []byte {
	if val == nil {
		return []byte{0}
	}
	return append([]byte{1}, val...)
}

// mtDecode strips the type byte, returning the value and whether the entry
// is a tombstone.
func mtDecode(b []byte) (val []byte, tombstone bool) {
	if len(b) == 0 || b[0] == 0 {
		return nil, true
	}
	return b[1:], false
}

// walRecord is one decoded WAL entry.
type walRecord struct {
	Key string
	Val []byte
}

func encodeWALRecord(key string, val []byte) []byte {
	out := make([]byte, 0, 8+len(key)+len(val))
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(key)))
	out = append(out, l[:]...)
	out = append(out, key...)
	vlen := uint32(len(val))
	if val == nil {
		vlen = 0xFFFFFFFF // tombstone marker
	}
	binary.LittleEndian.PutUint32(l[:], vlen)
	out = append(out, l[:]...)
	return append(out, val...)
}

func decodeWAL(data []byte) ([]walRecord, error) {
	var out []walRecord
	for len(data) > 0 {
		if len(data) < 4 {
			return nil, fmt.Errorf("truncated key length")
		}
		kl := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < kl+4 {
			return nil, fmt.Errorf("truncated key")
		}
		key := string(data[:kl])
		data = data[kl:]
		vl := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if vl == 0xFFFFFFFF {
			out = append(out, walRecord{Key: key, Val: nil})
			continue
		}
		if uint32(len(data)) < vl {
			return nil, fmt.Errorf("truncated value")
		}
		v := make([]byte, vl)
		copy(v, data[:vl])
		out = append(out, walRecord{Key: key, Val: v})
		data = data[vl:]
	}
	return out, nil
}

func appendKV(buf []byte, k, v []byte) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(k)))
	buf = append(buf, l[:]...)
	buf = append(buf, k...)
	vlen := uint32(len(v))
	if v == nil {
		vlen = 0xFFFFFFFF
	}
	binary.LittleEndian.PutUint32(l[:], vlen)
	buf = append(buf, l[:]...)
	return append(buf, v...)
}

// lookupRun scans a sorted-run image for key.
func lookupRun(data []byte, key string) ([]byte, bool) {
	for len(data) > 0 {
		if len(data) < 4 {
			return nil, false
		}
		kl := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < kl+4 {
			return nil, false
		}
		k := string(data[:kl])
		data = data[kl:]
		vl := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if vl == 0xFFFFFFFF {
			if k == key {
				return nil, true
			}
			continue
		}
		if uint32(len(data)) < vl {
			return nil, false
		}
		if k == key {
			return append([]byte(nil), data[:vl]...), true
		}
		data = data[vl:]
	}
	return nil, false
}

// --- recovery integration ---

// Checkpoint implements recovery.App. LevelDB journals continuously instead
// of checkpointing, so this is a no-op (§2.2).
func (db *DB) Checkpoint() {}

// PlanRestart implements recovery.App.
func (db *DB) PlanRestart(rt *core.Runtime, ci *kernel.CrashInfo, useUnsafe bool) (core.RestartPlan, string) {
	if useUnsafe && !rt.IsSafe("ldb") {
		return core.RestartPlan{}, "unsafe region: ldb"
	}
	db.writeInfo()
	return core.RestartPlan{InfoAddr: db.info, WithHeap: true}, ""
}

// Reattach implements recovery.App (CRIU restore).
func (db *DB) Reattach(rt *core.Runtime) {
	db.rt = rt
	proc := rt.Proc()
	m := proc.Machine
	h, err := heap.Attach(proc.AS, core.DefaultHeapBase, heap.Options{Name: "lsm"})
	if err != nil {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "lsmdb: criu reattach: " + err.Error()})
	}
	db.ctx = simds.NewCtx(h, m.Clock, m.Model)
	db.mt = simds.OpenSkiplist(db.ctx, proc.AS.ReadPtr(db.info))
}

// Dump implements recovery.App: merged view of memtable over sorted runs.
func (db *DB) Dump() core.StateDump {
	out := core.StateDump{}
	m := db.rt.Proc().Machine
	// Oldest runs first so newer runs overwrite.
	for i := len(db.ssts) - 1; i >= 0; i-- {
		if data, ok := m.Disk.ReadFile(db.ssts[i].name); ok {
			forEachKV(data, func(k string, v []byte) {
				if v == nil {
					delete(out, k)
				} else {
					out[k] = string(v)
				}
			})
		}
	}
	db.mt.IterAll(func(k, v []byte) bool {
		if val, tomb := mtDecode(v); tomb {
			delete(out, string(k))
		} else {
			out[string(k)] = string(val)
		}
		return true
	})
	return out
}

func forEachKV(data []byte, fn func(k string, v []byte)) {
	for len(data) >= 4 {
		kl := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < kl+4 {
			return
		}
		k := string(data[:kl])
		data = data[kl:]
		vl := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if vl == 0xFFFFFFFF {
			fn(k, nil)
			continue
		}
		if uint32(len(data)) < vl {
			return
		}
		fn(k, append([]byte(nil), data[:vl]...))
		data = data[vl:]
	}
}

// CrossCheck implements recovery.App: the reference state is the WAL replay
// (LevelDB's default recovery restores exactly the failure-time state, so no
// redo log is needed — §3.6's "some applications already support this").
func (db *DB) CrossCheck(rt *core.Runtime) (core.CrossCheckSpec, bool) {
	if !db.persistence {
		return core.CrossCheckSpec{}, false
	}
	m := rt.Proc().Machine
	info := db.info
	cfg := db.cfg
	return core.CrossCheckSpec{
		SnapshotDump: func(snap *mem.AddressSpace) core.StateDump {
			h, err := heap.Attach(snap, core.DefaultHeapBase, heap.Options{Name: "lsm"})
			if err != nil {
				return core.StateDump{"<snapshot>": "unattachable"}
			}
			c := simds.NewCtx(h, nil, m.Model)
			mt := simds.OpenSkiplist(c, snap.ReadPtr(info))
			out := core.StateDump{}
			func() {
				defer func() {
					if recover() != nil {
						out["<snapshot>"] = "corrupt"
					}
				}()
				mt.IterAll(func(k, v []byte) bool {
					if val, tomb := mtDecode(v); tomb {
						out[string(k)] = ""
					} else {
						out[string(k)] = string(val)
					}
					return true
				})
			}()
			return out
		},
		ReferenceRecover: func() (core.StateDump, time.Duration) {
			ref := core.StateDump{}
			dur := m.Clock.RunOffline(func() {
				data, ok := m.Disk.ReadFile(walFile)
				if !ok {
					return
				}
				recs, err := decodeWAL(data)
				if err != nil {
					return
				}
				m.Clock.Advance(time.Duration(len(recs)) * m.Model.LogReplayPerRecord)
				for _, r := range recs {
					if r.Val == nil {
						ref[r.Key] = ""
					} else {
						ref[r.Key] = string(r.Val)
					}
				}
				m.Clock.Advance(cfg.BootCost)
			})
			return ref, dur
		},
		InFlightKeys: map[string]bool{db.inflight: true},
	}, true
}

// RestoreReference implements recovery.ReferenceRestorer.
func (db *DB) RestoreReference(rt *core.Runtime, ref core.StateDump) error {
	// The validated background process's state equals the WAL replay, which
	// is exactly what a default-recovery Main produces.
	return db.Main(rt)
}

// --- real-bug scenarios (Table 5, L1–L2) ---

// ArmBug schedules a scripted bug: L1 (race on file operations crashes a
// request thread), L2 (hang due to unreleased lock).
func (db *DB) ArmBug(name string) { db.armedBug = name }

func (db *DB) fireBug(name string) {
	switch name {
	case "L1":
		// A racing file rename leaves a dangling table handle; the reader
		// dereferences freed state (LevelDB issue #169 class). Temporary
		// state only — the memtable is untouched.
		db.rt.Proc().AS.ReadU64(mem.VAddr(0x40)) // unmapped low page
	case "L2":
		// A lock acquired on an error path is never released; all writers
		// queue behind it (LevelDB issue #245).
		panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "lsmdb: deadlock on write queue"})
	default:
		panic(fmt.Sprintf("lsmdb: unknown bug %q", name))
	}
}

// SSTCount returns the number of flushed runs (tests).
func (db *DB) SSTCount() int { return len(db.ssts) }

// SortedSSTNames lists run names oldest-first (tests).
func (db *DB) SortedSSTNames() []string {
	names := make([]string, len(db.ssts))
	for i, s := range db.ssts {
		names[i] = s.name
	}
	sort.Strings(names)
	return names
}
