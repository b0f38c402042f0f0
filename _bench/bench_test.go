package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/apps/lsmdb"
	"phoenix/internal/core"
	"phoenix/internal/costmodel"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// tinyShape runs every workload's code path in well under a second.
var tinyShape = shape{
	serveKeys: 2000, servePerRound: 1000,
	recoverKeys: 2000, recoverPerCycle: 200, recoverCycles: 2,
	snapKeys: 2000, snapWrites: 100, snapPerReader: 500,
	churnRunFor: time.Second,
}

func tinyRun(t *testing.T, w workloadDef, seed int64, traced bool) *result {
	t.Helper()
	c := config{seed: seed, seconds: 2, shape: tinyShape}
	if traced {
		c.rec = newRecorder(time.Now(), 0)
	}
	res, err := w.run(c)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.correct() {
		t.Fatalf("%s: checks failed: %v", w.name, res.problems)
	}
	return res
}

// modelledValues are the metrics that must repeat bit for bit: everything
// derived from the simulated clock, plus the operation count.
func modelledValues(res *result) map[string]float64 {
	out := map[string]float64{"attempted": float64(res.attempted)}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Kind == modelled && !strings.HasPrefix(d.Name, "app.") && !strings.HasPrefix(d.Name, "recovery.") {
				out[d.Name] = res.values[d.Name]
			}
		}
	}
	return out
}

func TestModelledMetricsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := modelledValues(tinyRun(t, w, 7, false)), modelledValues(tinyRun(t, w, 7, false))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same-seed runs differ:\n%v\n%v", a, b)
			}
			if a["sim_ops_per_s"] == 0 || a["sim_latency_us"] == 0 {
				t.Fatalf("modelled metrics missing: %v", a)
			}
		})
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := tinyRun(t, w, 3, false)
			traced := tinyRun(t, w, 3, true)
			if a, b := modelledValues(plain), modelledValues(traced); !reflect.DeepEqual(a, b) {
				t.Fatalf("tracing changed modelled metrics:\n%v\n%v", a, b)
			}
			for _, d := range perLayer {
				if _, ok := traced.values[d.Name]; !ok && !zeroOnWorkload(w.name, d.Name) {
					t.Errorf("traced run did not report %s", d.Name)
				}
			}
		})
	}
}

// zeroOnWorkload names the per-layer metrics a workload does not exercise.
func zeroOnWorkload(workload, metric string) bool {
	kv := strings.HasPrefix(workload, "kv-")
	switch {
	case kv && (strings.HasPrefix(metric, "shard.") || metric == "netsim.sent_per_request"):
		return true
	case workload == "kv-snapshot" && metric == "app.handle_read_ns_p50":
		return true
	case workload == "shard-churn":
		return metric == "recovery.serve_self_ns_p50" || strings.Contains(metric, "snapshot")
	}
	return false
}

func TestTraceSpansNestAndExport(t *testing.T) {
	rec := newRecorder(time.Now(), 0)
	outer := rec.begin("outer", 1)
	inner := rec.begin("inner", 1)
	time.Sleep(time.Millisecond)
	rec.end(inner, 0)
	rec.end(outer, 0)
	if self := rec.self("outer")[0]; self >= time.Millisecond {
		t.Fatalf("outer self time %v includes its child", self)
	}
	if rec.spans[inner].Parent != outer {
		t.Fatalf("inner parent = %d, want %d", rec.spans[inner].Parent, outer)
	}
	path := t.TempDir() + "/trace.json"
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Ph != "X" {
		t.Fatalf("trace does not load as Chrome trace events: %v %s", err, raw)
	}
}

// TestWrapperInterfaces: the harness branches on optional interfaces, so a
// wrapper must implement exactly the ones its application does.
func TestWrapperInterfaces(t *testing.T) {
	optional := map[string]func(any) bool{
		"SnapshotServer":    func(x any) bool { _, ok := x.(recovery.SnapshotServer); return ok },
		"RewindableApp":     func(x any) bool { _, ok := x.(recovery.RewindableApp); return ok },
		"ReferenceRestorer": func(x any) bool { _, ok := x.(recovery.ReferenceRestorer); return ok },
		"ComponentApp":      func(x any) bool { _, ok := x.(recovery.ComponentApp); return ok },
		"RewindObserver":    func(x any) bool { _, ok := x.(recovery.RewindObserver); return ok },
	}
	kv := kvstore.New(kvstore.Config{}, nil)
	for _, name := range []string{"ComponentApp", "RewindObserver"} {
		if optional[name](kv) {
			t.Fatalf("*kvstore.KV now implements %s; extend tracedKV", name)
		}
	}
	for _, app := range []recovery.App{kv, lsmdb.New(lsmdb.Config{}, nil)} {
		w, _ := traceApp(app, newRecorder(time.Now(), 0), 0)
		for name, has := range optional {
			if has(app) != has(w) {
				t.Errorf("%T: wrapper implements %s = %v, application = %v", app, name, has(w), has(app))
			}
		}
	}
}

func TestCheckersRejectDoctoredResults(t *testing.T) {
	ok := recovery.Stats{Failures: 1, PhoenixRestarts: 1}
	if err := checkPhoenixRung(recovery.Stats{}, ok); err != nil {
		t.Errorf("clean PHOENIX recovery rejected: %v", err)
	}
	for _, bad := range []recovery.Stats{
		{Failures: 1},
		{Failures: 1, PhoenixRestarts: 1, UnsafeFallbacks: 1},
		{Failures: 1, PhoenixRestarts: 1, OtherRestarts: 1},
		{Failures: 2, PhoenixRestarts: 2},
	} {
		if checkPhoenixRung(recovery.Stats{}, bad) == nil {
			t.Errorf("recovery %+v accepted as one clean PHOENIX restart", bad)
		}
	}

	keys := []string{"a", "b"}
	dump := core.StateDump{"a": string(workload.Value("a", 1, valueSize)), "b": string(workload.Value("b", 1, valueSize))}
	if lost, _ := checkKeys(dump, keys); lost != 0 {
		t.Errorf("intact dump lost %d keys", lost)
	}
	dump["b"] = "stale"
	if lost, _ := checkKeys(dump, append(keys, "c")); lost != 2 {
		t.Errorf("dump with a changed and a missing key: lost = %d, want 2", lost)
	}
	if checkCount(dump, 3) == nil || checkCount(dump, 2) != nil {
		t.Error("checkCount does not compare the dump size")
	}

	res := newResult()
	var ops opCheck
	ops.note(&workload.Request{Op: workload.OpRead}, true, true)
	ops.note(&workload.Request{Op: workload.OpUpdate}, true, true)
	ops.report(res)
	if !res.correct() {
		t.Errorf("clean requests flagged: %v", res.problems)
	}
	ops.note(&workload.Request{Op: workload.OpRead}, true, false)
	ops.note(&workload.Request{Op: workload.OpInsert}, false, false)
	ops.report(res)
	if res.correct() || res.failed != 2 {
		t.Errorf("a missed read and an unanswered insert: failed = %d", res.failed)
	}

	if msgs := checkShard(shard.Report{}); len(msgs) != 0 {
		t.Errorf("clean report flagged: %v", msgs)
	}
	for _, bad := range []shard.Report{{LostAcked: 1}, {NonOwnerServes: 1}, {Unrecovered: 1}, {SnapshotStale: 1}} {
		if len(checkShard(bad)) != 1 {
			t.Errorf("report %+v not flagged", bad)
		}
	}
}

// TestSnapshotReadsCheckMisses doctors a snapshot that lacks most of the keys
// the readers ask for: the read phase must count the misses.
func TestSnapshotReadsCheckMisses(t *testing.T) {
	c := config{seed: 1, shape: tinyShape}
	rig, err := newKV(1, ycsb(1, 10, 0, 0, 1).LoadKeys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.h.SnapshotCommit(); err != nil {
		t.Fatal(err)
	}
	sr, err := rig.h.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if rs := readPhase(sr, 2, 200, 1, c, false); rs.missed == 0 {
		t.Fatal("reads of keys never stored were not counted as misses")
	}
}

func TestModelPinned(t *testing.T) {
	if err := checkPinned(); err != nil {
		t.Fatal(err)
	}
	m := costmodel.Default()
	m.ChecksumPerPage /= 2
	if checkModel(m, core.SecondFailureGrace) == nil {
		t.Error("a cheaper checksum term passed the pin")
	}
	if checkModel(costmodel.Default(), core.SecondFailureGrace/2) == nil {
		t.Error("a shorter grace window passed the pin")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric and
// workload catalogue in this package in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	for _, pair := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the catalogue %d", len(pair.json), len(pair.defs))
		}
		for i, d := range pair.defs {
			j := pair.json[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("metric %d: BENCHMARK.json %+v, catalogue %+v", i, j, d)
			}
		}
	}
}

func TestChurnScheduleScales(t *testing.T) {
	full, tiny := churnSchedule(12*time.Second), churnSchedule(time.Second)
	if full.Kills[7].At != 11*time.Second || full.RingChanges[0].At != 10250*time.Millisecond {
		t.Fatalf("12 s schedule: last kill %v, ring change %v", full.Kills[7].At, full.RingChanges[0].At)
	}
	if tiny.Kills[7].At != 11*time.Second/12 {
		t.Fatalf("1 s schedule: last kill %v", tiny.Kills[7].At)
	}
}
