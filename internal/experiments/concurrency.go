package experiments

import (
	"fmt"
	"strings"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

// The concurrent-serving campaign drives each snapshot-serving application
// through the reader ladder: batches of reads served off committed MVCC
// versions at 1, 4 and 16 concurrent readers, with writes advancing the next
// version between batches and a PHOENIX kill between ladder points. Its
// reads target a keyset the campaign writes itself, which explore's grammar
// cannot express, so it keeps its own loop. The contract: throughput scales
// with readers (≥2x ops/sec at 4 readers vs 1), and the stale-snapshot
// oracle stays at zero across the restart.

// concurrencyReaders is the fan-out ladder the campaign measures.
var concurrencyReaders = []int{1, 4, 16}

// The campaign's shape: concWarm in-distribution requests before its own
// concKeys-key keyset goes in, concBatch reads per ladder point (enough that
// the per-read term dominates the fixed commit and capture overhead), and
// concWrites writes between points so every commit captures a fresh dirty
// set.
const concWarm, concKeys, concBatch, concWrites = 64, 64, 128, 16

// SnapshotServers returns the registry applications that implement
// recovery.SnapshotServer, in name order.
func SnapshotServers(seed int64) []string {
	factories := registry.Factories(seed)
	var names []string
	for _, name := range registry.Names() {
		app, _ := factories[name](faultinject.New())
		if _, ok := app.(recovery.SnapshotServer); ok {
			names = append(names, name)
		}
	}
	return names
}

// ReaderPoint is one measured ladder point: a batch of snapshot reads at one
// fan-out, timed on the simulated clock (commit + capture + serve).
type ReaderPoint struct {
	Readers   int     `json:"readers"`
	BatchNs   int64   `json:"batch_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Effective int     `json:"effective"`
}

// ConcurrencyOutcome is one application's concurrent-serving result.
type ConcurrencyOutcome struct {
	App    string        `json:"app"`
	Points []ReaderPoint `json:"points"`
	// Speedup4v1 and Speedup16v1 compare batch latency against the
	// single-reader baseline; the campaign requires Speedup4v1 >= 2.
	Speedup4v1  float64 `json:"speedup_4v1"`
	Speedup16v1 float64 `json:"speedup_16v1"`
	// PhoenixRestarts counts the mid-run kill's recoveries (must be >= 1);
	// PostRestartEffective is the effective reads of the first batch served
	// off the restarted process's fresh snapshot store.
	PhoenixRestarts      int `json:"phoenix_restarts"`
	PostRestartEffective int `json:"post_restart_effective"`
	// Stale is the stale-snapshot oracle across every batch: nonzero means a
	// reader observed a frozen page mutated under it.
	Stale int `json:"stale"`
	// Pages is the app's preserved footprint (the first commit's changed
	// pages: every page with a frame).
	Pages int `json:"pages"`
}

// RunConcurrency serves reads off committed MVCC snapshots at 1, 4 and 16
// readers across a PHOENIX kill, and requires the reader speedup and a clean
// stale oracle.
func RunConcurrency(o Options) (any, error) {
	o.fill()
	return table(o, SnapshotServers(o.Seed), concurrency, func(b *strings.Builder, r ConcurrencyOutcome) {
		fmt.Fprintf(b, "%-18s", r.App)
		for _, p := range r.Points {
			fmt.Fprintf(b, " x%d=%v(%.0f ops/s)", p.Readers, time.Duration(p.BatchNs), p.OpsPerSec)
		}
		fmt.Fprintf(b, " speedup4v1=%.2f restart=%d\n", r.Speedup4v1, r.PhoenixRestarts)
	})
}

func concurrency(name string, seed int64) (ConcurrencyOutcome, error) {
	o := ConcurrencyOutcome{App: name}
	m := kernel.NewMachine(seed)
	inj := faultinject.New()
	app, gen := registry.Factories(seed)[name](inj)
	h := recovery.NewHarness(m, recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: 2 * time.Millisecond}, app, gen, inj)
	if err := h.Boot(); err != nil {
		return o, fmt.Errorf("%s: boot: %w", name, err)
	}
	if err := h.RunRequests(concWarm); err != nil {
		return o, fmt.Errorf("%s: warm: %w", name, err)
	}

	// The in-distribution generators of some apps read keys they never
	// inserted, which would make the effectiveness contract vacuous. Caches
	// populate via cacheable GETs; stores via inserts.
	isCache := strings.HasPrefix(name, "webcache")
	writeReq := func(i, round int) *workload.Request {
		key := fmt.Sprintf("conc-%04d", i)
		if isCache {
			return &workload.Request{Op: workload.OpWebGet, Key: key, Size: 256, Cacheable: true}
		}
		return &workload.Request{Op: workload.OpInsert, Key: key,
			Value: []byte(fmt.Sprintf("conc-val-%04d-round-%d", i, round))}
	}
	populate := func(n, round int) error {
		for i := 0; i < n; i++ {
			if _, _, err := h.ServeRequest(writeReq(i, round)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := populate(concKeys, 0); err != nil {
		return o, fmt.Errorf("%s: populate: %w", name, err)
	}
	batch := make([]*workload.Request, concBatch)
	for i := range batch {
		batch[i] = &workload.Request{Op: workload.OpRead, Key: fmt.Sprintf("conc-%04d", i%concKeys)}
		if isCache {
			batch[i].Op = workload.OpWebGet
		}
	}

	// The first commit counts the whole preserved footprint as changed —
	// recorded as the app's page cost of entering the MVCC regime.
	pages, err := h.SnapshotCommit()
	if err != nil {
		return o, fmt.Errorf("%s: first commit: %w", name, err)
	}
	o.Pages = pages

	// The reader ladder: writes dirty a fresh set, then one timed batch per
	// fan-out (commit + app capture + fan-out serve, so the speedups below
	// are end-to-end, not just the read term). Every read targets a key the
	// campaign wrote, so effectiveness must be total.
	byReaders := map[int]time.Duration{}
	runBatch := func(readers int) (time.Duration, int, error) {
		before := m.Clock.Now()
		if _, err := h.SnapshotCommit(); err != nil {
			return 0, 0, err
		}
		eff, stale, err := h.ServeSnapshotReads(batch, readers)
		if err != nil {
			return 0, 0, err
		}
		o.Stale += stale
		return m.Clock.Now() - before, eff, nil
	}
	for round, readers := range concurrencyReaders {
		if err := populate(concWrites, round+1); err != nil {
			return o, fmt.Errorf("%s: writes before x%d: %w", name, readers, err)
		}
		dur, eff, err := runBatch(readers)
		if err != nil {
			return o, fmt.Errorf("%s: batch x%d: %w", name, readers, err)
		}
		if eff != concBatch {
			return o, fmt.Errorf("%s: batch x%d: %d/%d reads effective against the campaign keyset",
				name, readers, eff, concBatch)
		}
		byReaders[readers] = dur
		o.Points = append(o.Points, ReaderPoint{
			Readers:   readers,
			BatchNs:   dur.Nanoseconds(),
			OpsPerSec: float64(concBatch) / dur.Seconds(),
			Effective: eff,
		})
	}
	o.Speedup4v1 = float64(byReaders[1]) / float64(byReaders[4])
	o.Speedup16v1 = float64(byReaders[1]) / float64(byReaders[16])

	// Mid-run PHOENIX kill: the process dies between ladder points, recovery
	// preserves the pages, and the next batch must serve off a snapshot store
	// rebuilt against the restarted address space.
	if err := h.Kill(); err != nil {
		return o, fmt.Errorf("%s: recovery: %w", name, err)
	}
	o.PhoenixRestarts = h.Stat.PhoenixRestarts
	_, eff, err := runBatch(4)
	if err != nil {
		return o, fmt.Errorf("%s: post-restart batch: %w", name, err)
	}
	o.PostRestartEffective = eff

	switch {
	case o.Speedup4v1 < 2.0:
		return o, fmt.Errorf("%s: 4-reader speedup %.2f below 2.0", name, o.Speedup4v1)
	case byReaders[16] > byReaders[4]:
		return o, fmt.Errorf("%s: batch latency not monotone in readers: x16=%v > x4=%v", name, byReaders[16], byReaders[4])
	case o.Stale != 0:
		return o, fmt.Errorf("%s: %d snapshot reads observed mutated frozen pages", name, o.Stale)
	case o.PhoenixRestarts < 1:
		return o, fmt.Errorf("%s: mid-run kill did not recover via preserve_exec", name)
	case o.PostRestartEffective != concBatch:
		return o, fmt.Errorf("%s: %d/%d snapshot reads effective after the restart — preserve_exec lost campaign keys",
			name, o.PostRestartEffective, concBatch)
	}
	return o, nil
}
