package mem

import (
	"fmt"
	"sync"
)

// SnapshotStore manages MVCC versions of one address space so concurrent
// readers can serve lock-free off an immutable view while a single writer
// advances the next version (after gostore's llrb/bogn snapshot lifecycle).
//
// Commit freezes the current contents into a SnapshotVersion whose view is a
// plain *AddressSpace with its own page tables and its own Frames — never
// the live frames — so PreserveExec page moves or rewind-domain restores on
// the live space can not tear a published snapshot. A view frame shares the
// live page buffer copy-on-write: the commit copies no bytes, and the live
// space copies each page at its next write (materialize, counted by
// SnapshotFaults), so a retained version costs only the pages written since
// it was taken. Pages whose write-generation stamp is unchanged since the
// previous version share that version's frozen frame instead of getting a
// new one, so commit cost is proportional to the pages written since the
// last commit, not to the whole space.
//
// Open returns the latest committed version in O(1) (a refcount bump under
// the store mutex; the mutex handoff is also the happens-before edge that
// publishes the frozen frames to reader goroutines). Release drops the ref;
// a superseded version retires — its page tables are dropped so preserved
// pages don't leak — the moment its last reader releases it. The latest
// version is always retained as the sharing base for the next Commit.
//
// One store is bound to one AddressSpace for its whole life. Within a single
// space, per-page generation stamps only ever increase, which is what makes
// share-by-generation sound; after a restart or migration installs a new
// address space the caller must create a fresh store (the first Commit then
// builds a frame for every page).
type SnapshotStore struct {
	mu sync.Mutex
	as *AddressSpace

	latest  *SnapshotVersion
	live    []*SnapshotVersion // committed, not yet retired (includes latest)
	nextSeq uint64
	retired int
}

// SnapshotVersion is one immutable committed version.
type SnapshotVersion struct {
	seq  uint64
	view *AddressSpace
	// gens records every page's generation stamp at commit time (resident or
	// not; 0 for a page without a frame), the basis for sharing unchanged
	// pages with the next version. gens[i][j] belongs to page j of the
	// view's mapping i, so it lines up with that mapping's page table.
	gens [][]uint64
	// maxGen is the highest generation visible at commit (write counter and
	// frame stamps both); no frame in a frozen view may ever exceed it.
	maxGen  uint64
	changed int
	refs    int
	retired bool
}

// NewSnapshotStore binds a store to one live address space.
func NewSnapshotStore(as *AddressSpace) *SnapshotStore {
	return &SnapshotStore{as: as}
}

// Space returns the live address space the store is bound to.
func (s *SnapshotStore) Space() *AddressSpace { return s.as }

// Commit freezes the current state of the space as a new version and returns
// it. Must be called from the writer (the space must be quiescent for the
// duration of the call). The previous latest retires immediately if no
// reader holds it.
//
// It walks the live page tables in address order, building the view's own
// tables beside them; the previous version is walked in step, so finding a
// page's previous stamp takes no lookup.
func (s *SnapshotStore) Commit() *SnapshotVersion {
	s.mu.Lock()
	defer s.mu.Unlock()

	prev := s.latest
	s.nextSeq++
	v := &SnapshotVersion{
		seq:    s.nextSeq,
		view:   &AddressSpace{ASLRBase: s.as.ASLRBase},
		gens:   make([][]uint64, 0, len(s.as.mappings)),
		maxGen: s.as.writeGen,
	}
	k := 0 // prev's walk position, see at
	for _, m := range s.as.mappings {
		nm := &Mapping{Start: m.Start, Pages: m.Pages, Kind: m.Kind, Name: m.Name, ptes: make([]*Frame, len(m.ptes))}
		gens := make([]uint64, len(m.ptes))
		first := PageOf(m.Start)
		for i, f := range m.ptes {
			if f == nil {
				continue
			}
			gens[i] = f.Gen
			if f.Gen > v.maxGen {
				v.maxGen = f.Gen
			}
			if prev != nil {
				if pg, pf := prev.at(first+PageNum(i), &k); pg == f.Gen {
					// Unchanged since the previous version: share its frozen
					// frame. A nil one means the page was (and still is)
					// non-resident — residency can't change without a stamp.
					nm.ptes[i] = pf
					continue
				}
			}
			v.changed++
			if f.Data != nil {
				// The view takes the live buffer; the live frame copies it
				// at its next write, a snapshot fault. One frame at a time,
				// not a slab: later versions keep sharing this version's
				// unchanged frames after it retires, so a slab would keep
				// its superseded frames and their buffers alive and raise
				// the heap.
				nf := f.fork()
				f.snap = true
				nm.ptes[i] = &nf
			}
			// Non-resident pages get no frame: the view reads them as zeros,
			// exactly like the live space.
		}
		v.view.insert(nm)
		v.gens = append(v.gens, gens)
	}

	s.latest = v
	s.live = append(s.live, v)
	if prev != nil && prev.refs == 0 {
		s.retire(prev)
	}
	return v
}

// at returns page p's stamp at commit time (0 when it had no frame) and its
// frozen frame. Successive calls must ask for ascending pages; *k carries
// the walk's position in the view's mappings from one call to the next.
func (v *SnapshotVersion) at(p PageNum, k *int) (uint64, *Frame) {
	ms := v.view.mappings
	for *k < len(ms) && PageOf(ms[*k].End()) <= p {
		*k++
	}
	if *k == len(ms) || PageOf(ms[*k].Start) > p {
		return 0, nil
	}
	i := p - PageOf(ms[*k].Start)
	return v.gens[*k][i], ms[*k].ptes[i]
}

// Open returns the latest committed version with a reference held, or nil if
// nothing has been committed yet. O(1). Safe to call from any goroutine.
func (s *SnapshotStore) Open() *SnapshotVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latest == nil {
		return nil
	}
	s.latest.refs++
	return s.latest
}

// Release drops one reference. A superseded version retires when its last
// reference goes; the latest version is retained as the next commit's
// sharing base. Safe to call from any goroutine.
func (s *SnapshotStore) Release(v *SnapshotVersion) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.refs <= 0 {
		panic("mem: snapshot Release without matching Open")
	}
	v.refs--
	if v.refs == 0 && v != s.latest {
		s.retire(v)
	}
}

// retire drops a version's view and stamps and removes it from the live list.
// Caller holds s.mu.
func (s *SnapshotStore) retire(v *SnapshotVersion) {
	if v.retired {
		return
	}
	v.retired = true
	v.view = nil
	v.gens = nil
	for i, lv := range s.live {
		if lv == v {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	s.retired++
}

// LiveVersions reports how many committed versions are still retained.
func (s *SnapshotStore) LiveVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// RetiredVersions reports how many versions have been retired over the
// store's life.
func (s *SnapshotStore) RetiredVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retired
}

// RetainedPages counts the distinct frozen frames held across all live
// versions (frames shared between versions count once). It bounds the page
// memory the version set pins, not measures it: a frozen frame's buffer is
// also the live space's until the live page is next written.
func (s *SnapshotStore) RetainedPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[*Frame]struct{})
	for _, v := range s.live {
		v.view.eachFrame(func(_ PageNum, f *Frame) { seen[f] = struct{}{} })
	}
	return len(seen)
}

// View returns the frozen address space. Reads on it are pure and safe from
// any number of goroutines; it must never be written.
func (v *SnapshotVersion) View() *AddressSpace { return v.view }

// Seq is the version's commit sequence number (1 for the first commit).
func (v *SnapshotVersion) Seq() uint64 { return v.seq }

// MaxGen is the highest write-generation stamp visible at commit time.
func (v *SnapshotVersion) MaxGen() uint64 { return v.maxGen }

// Changed is the number of pages whose stamp moved since the predecessor
// version, each given a new frozen frame (the rest share the predecessor's).
// The commit write-protects these pages and copies none of them: the live
// space copies each resident one at its first write after the commit, a
// snapshot fault (AddressSpace.SnapshotFaults).
func (v *SnapshotVersion) Changed() int { return v.changed }

// SnapshotFaults returns how many copy-on-write faults the space has taken
// on page buffers a SnapshotStore.Commit shared: the first write since a
// commit to a page that commit froze, which copies the page once. Buffers
// Clone and CopyPages share do not count. The count only grows; between
// two commits of one store it grows by at most the second commit's
// Changed(), since a fault stamps its page.
func (as *AddressSpace) SnapshotFaults() int { return as.snapFaults }

// CheckFrozen is the stale-snapshot oracle: every frame in the frozen view
// must carry a generation stamp no newer than the version's commit horizon.
// A violation means a live frame leaked into the view (a post-snapshot write
// became visible to readers). A write through a shared page buffer moves no
// view stamp, so the oracle cannot see one: materialize's copy guards that,
// checked by the dirty-bit lint, FuzzFrameShareInterleave and the -race
// battery.
func (v *SnapshotVersion) CheckFrozen() error {
	view := v.view
	if view == nil {
		return fmt.Errorf("mem: snapshot v%d already retired", v.seq)
	}
	var err error
	view.eachFrame(func(p PageNum, f *Frame) {
		if f.Gen > v.maxGen && err == nil {
			err = fmt.Errorf("mem: snapshot v%d page %d gen %d exceeds commit horizon %d (live frame leaked into frozen view)",
				v.seq, p, f.Gen, v.maxGen)
		}
	})
	return err
}
