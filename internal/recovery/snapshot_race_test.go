package recovery_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/apps/lsmdb"
	"phoenix/internal/apps/webcache"
	"phoenix/internal/kernel"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

// Race-hammer battery for concurrent snapshot serving. Unlike the campaign
// (which executes reader fan-out sequentially for determinism), these tests
// spawn real goroutines: several readers share one open SnapshotReader handle
// and serve off the frozen view while the writer keeps mutating the live
// address space, committing new versions, and — mid-battery — dying and
// riding a PHOENIX restart. Run under -race this exercises the whole
// published-immutability contract (views share page buffers with the live
// space until the live page's next write copies them, mutex handoff in
// Open, pure reader closures); the oracles check that every read
// of a campaign key is effective on every version and that CheckFrozen stays
// clean even with writes and a preserve_exec restart landing under held
// versions.

type raceTarget struct {
	h     *recovery.Harness
	m     *kernel.Machine
	write func(i, round int) *workload.Request
	read  func(i int) *workload.Request
}

func hammerSnapshots(t *testing.T, tgt raceTarget) {
	t.Helper()
	const keys, readers, readsPerReader, rounds = 48, 4, 64, 6
	h := tgt.h
	populate := func(n, round int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := h.ServeRequest(tgt.write(i, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	populate(keys, 0)

	for round := 0; round < rounds; round++ {
		if _, err := h.SnapshotCommit(); err != nil {
			t.Fatal(err)
		}
		r, err := h.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		var eff atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < readsPerReader; i++ {
					if _, effective := r.Serve(tgt.read((g*readsPerReader + i) % keys)); effective {
						eff.Add(1)
					}
				}
			}(g)
		}
		// The writer mutates the live space under the frozen version the
		// readers are walking — overwrites of existing keys plus fresh ones.
		populate(keys/2, round+1)
		if round == rounds/2 {
			// Mid-stream the process dies and preserve_exec restarts it while
			// the readers above still serve off the pre-restart version.
			if err := h.Kill(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		if got, want := eff.Load(), int64(readers*readsPerReader); got != want {
			t.Fatalf("round %d: %d/%d snapshot reads effective against the campaign keyset", round, got, want)
		}
		if err := r.CheckFrozen(); err != nil {
			t.Fatalf("round %d: stale snapshot after concurrent writes: %v", round, err)
		}
		r.Close()
	}
	if h.Stat.PhoenixRestarts != 1 {
		t.Fatalf("restarts = %d, want exactly 1 mid-battery", h.Stat.PhoenixRestarts)
	}
}

func bootRace(t *testing.T, seed int64, app recovery.App, gen workload.Generator) (*recovery.Harness, *kernel.Machine) {
	t.Helper()
	m := kernel.NewMachine(seed)
	h := recovery.NewHarness(m, recovery.Config{
		Mode: recovery.ModePhoenix, CheckpointInterval: 2 * time.Millisecond,
	}, app, gen, nil)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return h, m
}

func storeReqs(keys int) (func(i, round int) *workload.Request, func(i int) *workload.Request) {
	write := func(i, round int) *workload.Request {
		return &workload.Request{
			Op:    workload.OpInsert,
			Key:   fmt.Sprintf("race-%04d", i),
			Value: []byte(fmt.Sprintf("race-val-%04d-round-%d", i, round)),
		}
	}
	read := func(i int) *workload.Request {
		return &workload.Request{Op: workload.OpRead, Key: fmt.Sprintf("race-%04d", i%keys)}
	}
	return write, read
}

func TestSnapshotRaceKVStore(t *testing.T) {
	kv := kvstore.New(kvstore.Config{Cleanup: true}, nil)
	h, m := bootRace(t, 51, kv, workload.NewFillSeq(64))
	write, read := storeReqs(48)
	hammerSnapshots(t, raceTarget{h: h, m: m, write: write, read: read})
}

func TestSnapshotRaceLsmdb(t *testing.T) {
	db := lsmdb.New(lsmdb.Config{MemtableThreshold: 1 << 20}, nil)
	h, m := bootRace(t, 52, db, workload.NewFillSeq(64))
	write, read := storeReqs(48)
	hammerSnapshots(t, raceTarget{h: h, m: m, write: write, read: read})
}

func TestSnapshotRaceWebcache(t *testing.T) {
	for _, flavor := range []webcache.Flavor{webcache.FlavorVarnish, webcache.FlavorSquid} {
		t.Run(fmt.Sprint(flavor), func(t *testing.T) {
			web := workload.NewWeb(workload.WebConfig{Seed: 53, URLs: 100, MeanSize: 2 << 10})
			c := webcache.New(webcache.Config{Flavor: flavor, CapacityBytes: 8 << 20}, web, nil)
			h, m := bootRace(t, 53, c, web)
			write := func(i, round int) *workload.Request {
				return &workload.Request{
					Op: workload.OpWebGet, Key: fmt.Sprintf("race-%04d", i),
					Size: 256, Cacheable: true,
				}
			}
			read := func(i int) *workload.Request {
				return &workload.Request{Op: workload.OpWebGet, Key: fmt.Sprintf("race-%04d", i%48)}
			}
			hammerSnapshots(t, raceTarget{h: h, m: m, write: write, read: read})
		})
	}
}
