package kvstore

import (
	"phoenix/internal/mem"
	"phoenix/internal/simds"
	"phoenix/internal/workload"
)

// OpenSnapshotReader implements recovery.SnapshotServer: GETs served off a
// frozen MVCC view of the preserved dictionary. The closure is built on the
// writer thread (it reads the info block) and is then safe to call from any
// number of reader goroutines concurrently with the writer: every byte it
// touches lives in the immutable view, and it mutates nothing — no stats, no
// injection. A key present in the snapshot stays present for every reader of
// that version (snapshot isolation, not read-your-latest).
func (kv *KV) OpenSnapshotReader(view *mem.AddressSpace) func(req *workload.Request) (ok, effective bool) {
	c := simds.SnapshotCtx(view, kv.rt.Proc().Machine.Model)
	dict := simds.OpenDict(c, view.ReadPtr(kv.info))
	return func(req *workload.Request) (ok, effective bool) {
		if req.Op != workload.OpRead {
			return false, false
		}
		valPtr, found := dict.Get([]byte(req.Key))
		if !found {
			return true, false
		}
		// The reply path copies the value out of the frozen pages.
		_ = c.BlobBytes(mem.VAddr(valPtr))
		return true, true
	}
}
