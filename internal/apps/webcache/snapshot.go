package webcache

import (
	"phoenix/internal/mem"
	"phoenix/internal/simds"
	"phoenix/internal/workload"
)

// OpenSnapshotReader implements recovery.SnapshotServer: cache lookups served
// off a frozen MVCC view of the object table. The hot hit path in Handle
// mutates — it takes a reference, bumps the LRU node, counts stats — and none
// of that is possible (or needed) on an immutable view, so the snapshot
// reader is the pure lookup: dict probe, body copy. A miss is just a miss — a
// frozen view cannot fetch from the backend, so snapshot reads never insert.
func (c *Cache) OpenSnapshotReader(view *mem.AddressSpace) func(req *workload.Request) (ok, effective bool) {
	sc := simds.SnapshotCtx(view, c.rt.Proc().Machine.Model)
	dict := simds.OpenDict(sc, view.ReadPtr(c.root))
	return func(req *workload.Request) (ok, effective bool) {
		if req.Op != workload.OpWebGet && req.Op != workload.OpRead {
			return false, false
		}
		objVal, found := dict.Get([]byte(req.Key))
		if !found {
			return true, false
		}
		_ = sc.BlobBytes(view.ReadPtr(mem.VAddr(objVal) + objOffBody))
		return true, true
	}
}
