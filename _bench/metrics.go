package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// kind records where a metric's number comes from. Measured numbers are host
// wall clock and Go runtime counters, so they move with the host; modelled
// numbers come from the simulated clock, so they are a pure function of the
// seed and the run length.
type kind string

const (
	measured kind = "measured"
	modelled kind = "modelled"
)

// metricDef is one catalogue entry. BENCHMARK.json mirrors the catalogue
// (TestCatalogueMatchesBenchmarkJSON keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Kind   kind
}

// endToEnd are the user-visible metrics every workload reports on an untraced
// run; modelled names carry "sim", and each workload gives them its own
// meaning (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", measured},
	{"heap_mib", "MiB", "lower", measured},
	{"sim_ops_per_s", "1/s", "higher", modelled},
	{"sim_latency_us", "us", "lower", modelled},
}

// perLayer are the metrics a traced run reports: the workload's wall-clock
// throughput and latency (they do not repeat closely enough on a shared host
// to gate on), span self times recorded around the benchmark's own calls into
// each layer, counters read at the same boundaries, and the layer ladder. A
// layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"ops_per_s", "1/s", "higher", measured},
	{"op_p50_us", "us", "lower", measured},
	{"op_tail_us", "us", "lower", measured},
	{"workload.next_ns_p50", "ns", "lower", measured},
	{"recovery.serve_self_ns_p50", "ns", "lower", measured},
	{"app.handle_ns_p50", "ns", "lower", measured},
	{"app.handle_ns_p99", "ns", "lower", measured},
	{"app.handle_read_ns_p50", "ns", "lower", measured},
	{"app.handle_write_ns_p50", "ns", "lower", measured},
	{"app.handle_sim_ns_mean", "ns", "lower", modelled},
	{"app.plan_restart_us_p50", "us", "lower", measured},
	{"app.main_recover_ms_p50", "ms", "lower", measured},
	{"app.main_recover_sim_ms_p50", "ms", "lower", modelled},
	{"recovery.restart_self_ms_p50", "ms", "lower", measured},
	{"recovery.restart_self_sim_ms_p50", "ms", "lower", modelled},
	{"recovery.phoenix_restart_frac", "ratio", "higher", measured},
	{"kernel.moved_pages", "count", "lower", measured},
	{"kernel.checksums_verified", "count", "lower", measured},
	{"kernel.checksum_reuse_frac", "ratio", "higher", measured},
	{"kernel.preserves_aborted", "count", "lower", measured},
	{"recovery.snapshot_commit_us_p50", "us", "lower", measured},
	{"recovery.open_snapshot_us_p50", "us", "lower", measured},
	{"app.snapshot_read_ns_p50", "ns", "lower", measured},
	{"snapshot.reads_per_s_1r", "1/s", "higher", measured},
	{"snapshot.reader_scaling", "ratio", "higher", measured},
	{"shard.avail_sim_pct", "%", "higher", modelled},
	{"shard.p999_sim_us", "us", "lower", modelled},
	{"shard.migrate_cutover_sim_p50_us", "us", "lower", modelled},
	{"shard.retried_frac", "ratio", "lower", modelled},
	{"shard.stale_frac", "ratio", "lower", modelled},
	{"shard.node_recovery_sim_us_mean", "us", "lower", modelled},
	{"shard.migrate_rounds_mean", "count", "lower", modelled},
	{"shard.migrate_final_delta_mean", "count", "lower", modelled},
	{"netsim.sent_per_request", "count", "lower", modelled},
	{"go.alloc_bytes_per_op", "B", "lower", measured},
	{"go.gc_cycles", "count", "lower", measured},
	{"trace.overhead_frac", "ratio", "lower", measured},
	{"mem.read_u64_ns", "ns", "lower", measured},
	{"mem.write_u64_ns", "ns", "lower", measured},
	{"mem.page_checksum_ns", "ns", "lower", measured},
	{"mem.dirty_scan_ns_per_page", "ns", "lower", measured},
	{"mem.snapshot_commit_1pct_us", "us", "lower", measured},
	{"heap.alloc_free_ns", "ns", "lower", measured},
	{"heap.mark_sweep_ms", "ms", "lower", measured},
	{"simds.dict_get_ns", "ns", "lower", measured},
	{"simds.dict_get_allocs", "count", "lower", measured},
	{"simds.dict_set_ns", "ns", "lower", measured},
	{"kernel.preserve_exec_full_ms", "ms", "lower", measured},
	{"kernel.preserve_exec_delta1pct_ms", "ms", "lower", measured},
	{"kernel.preserve_exec_allocs", "count", "lower", measured},
	{"netsim.send_deliver_ns", "ns", "lower", measured},
}

// result is what one workload run produces.
type result struct {
	attempted int
	failed    int
	// problems describes every failed correctness check (first few per kind).
	problems []string
	values   map[string]float64
	// samples pools raw observations that several phases of a traced run
	// contribute to before they are summarised into values.
	samples map[string][]float64
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string][]float64{}}
}

func (r *result) addSamples(name string, xs ...float64) {
	r.samples[name] = append(r.samples[name], xs...)
}

// problem records a failed correctness check; failed counts the operations
// it covers.
func (r *result) problem(failed int, msg string) {
	r.failed += failed
	r.problems = append(r.problems, msg)
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// percentile returns the q-quantile (0..1) of xs by nearest rank on a sorted
// copy; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPct(s, q)
}

// sortedPct is percentile on an already sorted, non-empty slice.
func sortedPct(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// durations converts to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// heapWatch tracks the peak live Go heap across the points a workload
// samples it at.
type heapWatch struct {
	live []metrics.Sample
	peak uint64
}

func newHeapWatch() *heapWatch {
	return &heapWatch{live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// sample forces a collection and records the heap it left live, so the
// number does not depend on when the last collection happened to run.
// Callers sample outside timed windows.
func (w *heapWatch) sample() {
	runtime.GC()
	metrics.Read(w.live)
	if v := w.live[0].Value.Uint64(); v > w.peak {
		w.peak = v
	}
}

func (w *heapWatch) mib() float64 { return float64(w.peak) / (1 << 20) }
