package registry_test

import (
	"fmt"
	"strings"
	"testing"

	"phoenix/internal/apps/registry"
	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

// TestMicrorebootFullLadder requires the granularity ordering the
// microreboot campaign enforces to have actually been measured on at least
// three applications: rewind, microreboot, and PHOENIX windows all present.
func TestMicrorebootFullLadder(t *testing.T) {
	outs, err := recovery.CheckMicroreboot(registry.MicrorebootSpecs(7), recovery.MicrorebootConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fullLadder := 0
	for _, o := range outs {
		rungs := map[string]bool{}
		for _, w := range o.Windows {
			rungs[w.Granularity] = true
		}
		if rungs["rewind"] && rungs["microreboot"] && rungs["phoenix"] {
			fullLadder++
		}
	}
	if fullLadder < 3 {
		t.Fatalf("only %d app(s) measured the full rewind/microreboot/phoenix ladder, want >= 3", fullLadder)
	}
}

// TestConcurrencySpecsServeSnapshots keeps ConcurrencyNames honest: an app is
// listed if and only if it actually implements recovery.SnapshotServer, so
// adding snapshot serving to an app (or dropping it) without updating the
// campaign roster fails here instead of silently shrinking coverage.
func TestConcurrencySpecsServeSnapshots(t *testing.T) {
	listed := map[string]bool{}
	for _, n := range registry.ConcurrencyNames() {
		listed[n] = true
	}
	factories := registry.Factories(1)
	for _, name := range registry.Names() {
		app, _ := factories[name](faultinject.New())
		_, serves := app.(recovery.SnapshotServer)
		if serves && !listed[name] {
			t.Errorf("%s implements SnapshotServer but is missing from ConcurrencyNames", name)
		}
		if !serves && listed[name] {
			t.Errorf("%s is in ConcurrencyNames but does not implement SnapshotServer", name)
		}
	}
	for n := range listed {
		if _, ok := factories[n]; !ok {
			t.Errorf("ConcurrencyNames lists unknown app %q", n)
		}
	}
}

// TestSnapshotServersAreRewindable pins the rewind contract for the serving
// apps: every app the concurrency campaign drives also consents to rewind
// domains (the sub-process rung rides under the same battery), and lsmdb —
// whose request handlers append to the Go-side WAL — carries the
// RewindObserver repair hook a domain discard alone cannot replace.
func TestSnapshotServersAreRewindable(t *testing.T) {
	factories := registry.Factories(1)
	for _, name := range registry.ConcurrencyNames() {
		app, _ := factories[name](faultinject.New())
		ra, ok := app.(recovery.RewindableApp)
		if !ok || !ra.Rewindable() {
			t.Errorf("%s: snapshot-serving app is not rewindable", name)
		}
	}
	lsm, _ := factories["lsmdb"](faultinject.New())
	if _, ok := lsm.(recovery.RewindObserver); !ok {
		t.Error("lsmdb lost its RewindObserver repair hook: a rewound put would resurrect its WAL append")
	}
}

// BenchmarkServeConcurrent reports simulated serving throughput off committed
// MVCC snapshots across the reader ladder. The metric of record is
// sim_ops_per_sec (wall time on a 1-core CI box says nothing); the acceptance
// bar — ≥2x ops/sec at 4 readers vs 1 on at least two apps — is enforced
// deterministically by the experiments package's TestConcurrencyClaims; this
// benchmark makes the same curve visible in bench output.
func BenchmarkServeConcurrent(b *testing.B) {
	for _, name := range registry.ConcurrencyNames() {
		for _, readers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/readers=%d", name, readers), func(b *testing.B) {
				bench := newServeBench(b, name)
				b.ResetTimer()
				var simNs float64
				for i := 0; i < b.N; i++ {
					simNs += bench.batch(b, readers)
				}
				b.ReportMetric(float64(len(bench.reads)*b.N)/(simNs/1e9), "sim_ops/s")
			})
		}
	}
}

type serveBench struct {
	h     *recovery.Harness
	reads []*workload.Request
}

func newServeBench(b *testing.B, name string) *serveBench {
	b.Helper()
	const keys = 64
	m := kernel.NewMachine(1)
	inj := faultinject.New()
	app, gen := registry.Factories(1)[name](inj)
	h := recovery.NewHarness(m, recovery.Config{Mode: recovery.ModePhoenix}, app, gen, inj)
	if err := h.Boot(); err != nil {
		b.Fatal(err)
	}
	isCache := strings.HasPrefix(name, "webcache")
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("bench-%04d", i)
		req := &workload.Request{Op: workload.OpInsert, Key: key, Value: []byte(key)}
		if isCache {
			req = &workload.Request{Op: workload.OpWebGet, Key: key, Size: 256, Cacheable: true}
		}
		if _, _, err := h.ServeRequest(req); err != nil {
			b.Fatal(err)
		}
	}
	sb := &serveBench{h: h}
	for i := 0; i < 128; i++ {
		key := fmt.Sprintf("bench-%04d", i%keys)
		if isCache {
			sb.reads = append(sb.reads, &workload.Request{Op: workload.OpWebGet, Key: key})
		} else {
			sb.reads = append(sb.reads, &workload.Request{Op: workload.OpRead, Key: key})
		}
	}
	return sb
}

// batch runs one commit+serve cycle and returns the simulated nanoseconds it
// cost.
func (sb *serveBench) batch(b *testing.B, readers int) float64 {
	b.Helper()
	m := sb.h.M
	before := m.Clock.Now()
	if _, err := sb.h.SnapshotCommit(); err != nil {
		b.Fatal(err)
	}
	eff, stale, err := sb.h.ServeSnapshotReads(sb.reads, readers)
	if err != nil {
		b.Fatal(err)
	}
	if eff != len(sb.reads) || stale != 0 {
		b.Fatalf("batch served %d/%d effective, stale=%d", eff, len(sb.reads), stale)
	}
	return float64(m.Clock.Now() - before)
}
