package recovery

import (
	"fmt"
	"strings"
	"time"

	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/workload"
)

// This file implements the concurrent-serving campaign: CheckConcurrency
// drives each snapshot-serving application through the reader ladder —
// batches of reads served off committed MVCC versions at 1, 4, and 16
// concurrent readers — with writes advancing the next version between
// batches and a mid-run PHOENIX kill landing between ladder points. The
// campaign's contract is threefold: serving throughput must scale with
// readers (≥2x ops/sec at 4 readers vs 1), the stale-snapshot oracle must
// stay at zero across the restart, and the modelled parallel preserve
// staging must beat the serial walk on the app's preserved footprint. All
// timing flows through the simulated clock, so outcomes are deterministic
// and same-seed runs marshal byte-identically.

// concurrencyReaders is the fan-out ladder the campaign measures.
var concurrencyReaders = []int{1, 4, 16}

// ConcurrencySpec names one application that implements SnapshotServer.
type ConcurrencySpec struct {
	Name string
	Mk   AppFactory
}

// ConcurrencyConfig parameterises CheckConcurrency.
type ConcurrencyConfig struct {
	// Seed is the machine seed (runs are deterministic replays).
	Seed int64
	// Warm is how many in-distribution requests to serve before the campaign
	// keyset goes in (default 64).
	Warm int
	// Keys is the campaign's own keyset size — keys it inserts itself so
	// every snapshot read has a known-present target (default 64).
	Keys int
	// Batch is the reads per ladder point (default 128 — large enough that
	// the per-read term dominates the fixed commit/capture overhead).
	Batch int
	// Writes advance the dataset between ladder points so every commit
	// captures a fresh dirty set (default 16).
	Writes int
	// Workers is the modelled parallel-staging pool width (default 4).
	Workers int
	// ModelPages is the preserved footprint the modelled parallel-vs-serial
	// staging comparison runs at (default 2048 — a working set large enough
	// to amortise the worker spawns; the campaign apps' own footprints sit
	// below the pool's break-even and are recorded separately as Pages).
	ModelPages int
}

func (c *ConcurrencyConfig) fill() {
	if c.Warm <= 0 {
		c.Warm = 64
	}
	if c.Keys <= 0 {
		c.Keys = 64
	}
	if c.Batch <= 0 {
		c.Batch = 128
	}
	if c.Writes <= 0 {
		c.Writes = 16
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.ModelPages <= 0 {
		c.ModelPages = 2048
	}
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
	// PreserveSerialNs and PreserveParallelNs are the modelled staging
	// latencies of an incremental preserve at the ModelPages reference
	// footprint, serial vs spread across Workers.
	Pages              int   `json:"pages"`
	ModelPages         int   `json:"model_pages"`
	PreserveSerialNs   int64 `json:"preserve_serial_ns"`
	PreserveParallelNs int64 `json:"preserve_parallel_ns"`
}

func (o ConcurrencyOutcome) String() string {
	parts := make([]string, 0, len(o.Points))
	for _, p := range o.Points {
		parts = append(parts, fmt.Sprintf("x%d=%v", p.Readers, time.Duration(p.BatchNs)))
	}
	return fmt.Sprintf("%s: %s speedup4v1=%.2f stale=%d preserve=%v/%v",
		o.App, strings.Join(parts, " "), o.Speedup4v1, o.Stale,
		time.Duration(o.PreserveParallelNs), time.Duration(o.PreserveSerialNs))
}

// CheckConcurrency runs the reader ladder for every spec and enforces the
// concurrent-serving contract.
func CheckConcurrency(specs []ConcurrencySpec, cfg ConcurrencyConfig) ([]ConcurrencyOutcome, error) {
	cfg.fill()
	var out []ConcurrencyOutcome
	for _, spec := range specs {
		o, err := checkOneConcurrency(spec, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, o)
	}
	return out, nil
}

func checkOneConcurrency(spec ConcurrencySpec, cfg ConcurrencyConfig) (ConcurrencyOutcome, error) {
	o := ConcurrencyOutcome{App: spec.Name}
	m := kernel.NewMachine(cfg.Seed)
	inj := faultinject.New()
	app, gen := spec.Mk(inj)
	h := NewHarness(m, Config{Mode: ModePhoenix, CheckpointInterval: 2 * time.Millisecond}, app, gen, inj)
	if err := h.Boot(); err != nil {
		return o, fmt.Errorf("%s: boot: %w", spec.Name, err)
	}
	if _, ok := app.(SnapshotServer); !ok {
		return o, fmt.Errorf("%s: app does not implement SnapshotServer", spec.Name)
	}
	if err := h.RunRequests(cfg.Warm); err != nil {
		return o, fmt.Errorf("%s: warm: %w", spec.Name, err)
	}

	// The campaign drives its own keyset so every snapshot read has a
	// known-present target: the in-distribution generators of some apps read
	// keys they never inserted, which would make the effectiveness contract
	// vacuous. Caches populate via cacheable GETs; stores via inserts.
	isCache := strings.HasPrefix(spec.Name, "webcache")
	writeReq := func(i, round int) *workload.Request {
		key := fmt.Sprintf("conc-%04d", i)
		if isCache {
			return &workload.Request{Op: workload.OpWebGet, Key: key, Size: 256, Cacheable: true}
		}
		return &workload.Request{Op: workload.OpInsert, Key: key,
			Value: []byte(fmt.Sprintf("conc-val-%04d-round-%d", i, round))}
	}
	readReq := func(i int) *workload.Request {
		key := fmt.Sprintf("conc-%04d", i%cfg.Keys)
		if isCache {
			return &workload.Request{Op: workload.OpWebGet, Key: key}
		}
		return &workload.Request{Op: workload.OpRead, Key: key}
	}
	populate := func(n, round int) error {
		for i := 0; i < n; i++ {
			if _, _, err := h.ServeRequest(writeReq(i, round)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := populate(cfg.Keys, 0); err != nil {
		return o, fmt.Errorf("%s: populate: %w", spec.Name, err)
	}
	batch := make([]*workload.Request, cfg.Batch)
	for i := range batch {
		batch[i] = readReq(i)
	}

	// The first commit counts the whole preserved footprint as changed —
	// recorded as the app's page cost of entering the MVCC regime.
	pages, err := h.SnapshotCommit()
	if err != nil {
		return o, fmt.Errorf("%s: first commit: %w", spec.Name, err)
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
		if err := populate(cfg.Writes, round+1); err != nil {
			return o, fmt.Errorf("%s: writes before x%d: %w", spec.Name, readers, err)
		}
		dur, eff, err := runBatch(readers)
		if err != nil {
			return o, fmt.Errorf("%s: batch x%d: %w", spec.Name, readers, err)
		}
		if eff != cfg.Batch {
			return o, fmt.Errorf("%s: batch x%d: %d/%d reads effective against the campaign keyset",
				spec.Name, readers, eff, cfg.Batch)
		}
		byReaders[readers] = dur
		o.Points = append(o.Points, ReaderPoint{
			Readers:   readers,
			BatchNs:   dur.Nanoseconds(),
			OpsPerSec: float64(cfg.Batch) / dur.Seconds(),
			Effective: eff,
		})
	}
	o.Speedup4v1 = float64(byReaders[1]) / float64(byReaders[4])
	o.Speedup16v1 = float64(byReaders[1]) / float64(byReaders[16])

	// Mid-run PHOENIX kill: the process dies between ladder points, recovery
	// preserves the pages, and the next batch must serve off a snapshot store
	// rebuilt against the restarted address space.
	if err := h.Kill(); err != nil {
		return o, fmt.Errorf("%s: recovery: %w", spec.Name, err)
	}
	o.PhoenixRestarts = h.Stat.PhoenixRestarts
	_, eff, err := runBatch(4)
	if err != nil {
		return o, fmt.Errorf("%s: post-restart batch: %w", spec.Name, err)
	}
	o.PostRestartEffective = eff

	// Modelled preserve staging at the reference footprint: the parallel
	// walk must beat the serial one once the footprint amortises the worker
	// spawns (the campaign apps themselves sit below that break-even, which
	// is why the comparison runs at ModelPages, not Pages).
	o.ModelPages = cfg.ModelPages
	o.PreserveSerialNs = m.Model.PreserveExecDelta(cfg.ModelPages, 0, cfg.ModelPages, cfg.ModelPages).Nanoseconds()
	o.PreserveParallelNs = m.Model.PreserveExecDeltaParallel(cfg.ModelPages, 0, cfg.ModelPages, cfg.ModelPages, cfg.Workers).Nanoseconds()

	// The contract.
	if o.Speedup4v1 < 2.0 {
		return o, fmt.Errorf("%s: 4-reader speedup %.2f below 2.0 (%s)", spec.Name, o.Speedup4v1, o)
	}
	if byReaders[16] > byReaders[4] {
		return o, fmt.Errorf("%s: batch latency not monotone in readers: x16=%v > x4=%v", spec.Name, byReaders[16], byReaders[4])
	}
	if o.Stale != 0 {
		return o, fmt.Errorf("%s: %d snapshot reads observed mutated frozen pages", spec.Name, o.Stale)
	}
	if o.PhoenixRestarts < 1 {
		return o, fmt.Errorf("%s: mid-run kill did not recover via preserve_exec", spec.Name)
	}
	if o.PostRestartEffective != cfg.Batch {
		return o, fmt.Errorf("%s: %d/%d snapshot reads effective after the restart — preserve_exec lost campaign keys",
			spec.Name, o.PostRestartEffective, cfg.Batch)
	}
	if o.PreserveParallelNs >= o.PreserveSerialNs {
		return o, fmt.Errorf("%s: modelled parallel preserve staging %v does not beat serial %v over %d pages",
			spec.Name, time.Duration(o.PreserveParallelNs), time.Duration(o.PreserveSerialNs), cfg.ModelPages)
	}
	return o, nil
}

// FmtConcurrency renders the campaign result for terminal output: one row
// per application.
func FmtConcurrency(outs []ConcurrencyOutcome) string {
	var b strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&b, "%-18s", o.App)
		for _, p := range o.Points {
			fmt.Fprintf(&b, " x%d=%v(%.0f ops/s)", p.Readers, time.Duration(p.BatchNs), p.OpsPerSec)
		}
		fmt.Fprintf(&b, " speedup4v1=%.2f restart=%d preserve=%v/%v\n",
			o.Speedup4v1, o.PhoenixRestarts,
			time.Duration(o.PreserveParallelNs), time.Duration(o.PreserveSerialNs))
	}
	return b.String()
}
