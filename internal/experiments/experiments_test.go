package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"phoenix/internal/explore"
	"phoenix/internal/golden"
	"phoenix/internal/perftraj"
	"phoenix/internal/recovery"
)

// TestRegistryComplete checks every paper table/figure, campaign, ablation
// and the preserve trajectory has an entry.
func TestRegistryComplete(t *testing.T) {
	want := []string{"tab1", "fig1", "fig9", "tab3", "tab4", "tab5",
		"fig10", "fig11", "fig12", "fig13", "tab6", "tab7", "tab8", "tab9",
		"figcluster", "figshard", "figexplore", "figvet",
		"ir", "atomicity", "escalation", "microreboot", "concurrency",
		"abl-zerocopy", "abl-cleanup", "abl-regions", "preserve"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) resolved")
	}
}

// quickRun is one registry entry's text, report and contract error at
// -quick scale and seed 1.
type quickRun struct {
	text   string
	report any
	err    error
}

// quickRuns holds each registry entry's quick run. An entry runs on first
// use, so the golden test and the claim checks below share one run and no
// entry runs twice in a test binary.
var quickRuns = func() map[string]func() quickRun {
	runs := map[string]func() quickRun{}
	for _, e := range All() {
		runs[e.ID] = sync.OnceValue(func() quickRun {
			var buf bytes.Buffer
			report, err := e.Run(Options{Quick: true, Seed: 1, Out: &buf})
			return quickRun{buf.String(), report, err}
		})
	}
	return runs
}()

// quick returns the quick run of registry entry id, failing t on its
// contract error.
func quick(t *testing.T, id string) quickRun {
	t.Helper()
	if testing.Short() {
		t.Skip("quick experiment runs skipped in -short mode")
	}
	r := quickRuns[id]()
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r
}

// quickOutput returns the quick text of registry entry id.
func quickOutput(t *testing.T, id string) string {
	t.Helper()
	return quick(t, id).text
}

// goldenDir holds every entry's text golden and every campaign's report
// golden.
var goldenDir = filepath.Join("testdata", "golden")

// TestGolden byte-compares every registry entry's quick text with
// testdata/golden/<id>.txt. Every output is a pure function of the code,
// so any change in behaviour shows up here as a diff naming the file and
// its first differing line; `go test ./internal/experiments -update`
// accepts it by rewriting the files whose output changed. A golden file no
// entry produces fails the test. Entries share no state, so they run in
// parallel.
func TestGolden(t *testing.T) {
	files, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id, ext, _ := strings.Cut(f.Name(), ".")
		if _, ok := ByID(id); !ok || (ext != "txt" && ext != "json") {
			t.Errorf("%s: no registry entry produces this golden file", filepath.Join(goldenDir, f.Name()))
		}
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			golden.Check(t, filepath.Join(goldenDir, e.ID+".txt"), []byte(quick(t, e.ID).text))
		})
	}
}

// TestCampaignGolden byte-compares the report of every entry that returns
// one (the fault-injection campaigns) with testdata/golden/<id>.json, as
// `phoenix-bench -quick -json` prints it, from the same quick run as
// TestGolden. An entry without a report must have no .json golden.
func TestCampaignGolden(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r := quick(t, e.ID)
			path := filepath.Join(goldenDir, e.ID+".json")
			if r.report == nil {
				if _, err := os.Stat(path); err == nil {
					t.Errorf("%s: %s returns no report", path, e.ID)
				}
				return
			}
			got, err := json.Marshal(r.report)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, path, append(got, '\n'))
		})
	}
}

// rows returns the whitespace-split fields of every output line whose first
// field is key.
func rows(out, key string) [][]string {
	var rs [][]string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == key {
			rs = append(rs, f)
		}
	}
	return rs
}

// oneRow returns the only output line starting with key, split into fields,
// and fails unless it has n fields.
func oneRow(t *testing.T, out, key string, n int) []string {
	t.Helper()
	rs := rows(out, key)
	if len(rs) != 1 || len(rs[0]) != n {
		t.Fatalf("want one %d-field %q row, got %q in:\n%s", n, key, rs, out)
	}
	return rs[0]
}

func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBuildSystemAllNames(t *testing.T) {
	for _, sys := range []string{"kvstore", "lsmdb", "webcache-varnish", "webcache-squid", "boost", "particle"} {
		sh, err := buildSystem(sys, recovery.Config{Mode: recovery.ModeVanilla}, Options{Quick: true, Seed: 1}, nil)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if err := sh.h.RunRequests(10); err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if len(sh.dmp()) == 0 && sys != "webcache-varnish" && sys != "webcache-squid" {
			t.Errorf("%s: empty dump", sys)
		}
	}
	if _, err := buildSystem("nope", recovery.Config{}, Options{Quick: true, Seed: 1}, nil); err == nil {
		t.Fatal("unknown system accepted")
	}
}

// TestFig9Shape checks Figure 9's shape: the plain-restart baseline is the
// same at every size, and PHOENIX's restart latency rises with the preserved
// size.
func TestFig9Shape(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(quickOutput(t, "fig9")), "\n")[1:]
	if len(lines) != 7 {
		t.Fatalf("fig9 printed %d sizes, want 7", len(lines))
	}
	var prev time.Duration
	for _, line := range lines {
		f := strings.Fields(line) // preserved, phoenix, baseline
		if len(f) != 3 {
			t.Fatalf("bad fig9 row %q", line)
		}
		if f[2] != strings.Fields(lines[0])[2] {
			t.Errorf("baseline moved with the preserved size: %s", line)
		}
		if d := parseDur(t, f[1]); d <= prev {
			t.Errorf("restart latency did not rise: %s", line)
		} else {
			prev = d
		}
	}
}

// TestFig11Smoke checks Figure 11's claim: PHOENIX discards the deadlocked
// requests but keeps the cache, so its downtime is the lowest and its
// 5-second availability the highest of the three mechanisms.
func TestFig11Smoke(t *testing.T) {
	out := quickOutput(t, "fig11")
	ph := oneRow(t, out, "PHOENIX", 4) // mode, downtime, 5s-avail, 90%-rec
	for _, mode := range []string{"Vanilla", "CRIU"} {
		r := oneRow(t, out, mode, 4)
		if parseDur(t, ph[1]) > parseDur(t, r[1]) || parseFloat(t, ph[2]) < parseFloat(t, r[2]) {
			t.Errorf("PHOENIX %q not ahead of %q", ph, r)
		}
	}
}

// TestFig12Shape checks the ordering claims the paper makes on Figure 12:
// PHOENIX's downtime is at or below vanilla's and builtin's, and vanilla's
// 5-second availability is far below PHOENIX's.
func TestFig12Shape(t *testing.T) {
	out := quickOutput(t, "fig12")
	downtime := map[string]time.Duration{}
	avail := map[string]float64{}
	for _, mode := range []string{"Vanilla", "Builtin", "PHOENIX"} {
		r := oneRow(t, out, mode, 4) // mode, downtime, 5s-avail, 90%-rec
		downtime[mode] = parseDur(t, r[1])
		avail[mode] = parseFloat(t, r[2])
	}
	if downtime["PHOENIX"] > downtime["Vanilla"] || downtime["PHOENIX"] > downtime["Builtin"] {
		t.Errorf("phoenix downtime not best: %v", downtime)
	}
	if avail["Vanilla"] > avail["PHOENIX"]*0.8 {
		t.Errorf("vanilla 5s-availability not below 0.8x phoenix's: %v", avail)
	}
}

// TestTab7Smoke checks Table 7's claim that the U configuration (unsafe
// regions, no cross-check) adds no corruption beyond vanilla's.
func TestTab7Smoke(t *testing.T) {
	out := quickOutput(t, "tab7")
	u := 0
	for _, line := range strings.Split(out, "\n") {
		// system cfg Rec Chk Fbk Rate Add Shd Sil attempts
		if f := strings.Fields(line); len(f) == 10 && f[1] == "U" {
			u++
			if f[6] != "0" {
				t.Errorf("U config with additional corruption: %s", line)
			}
		}
	}
	if u != 4 {
		t.Fatalf("found %d U rows, want 4:\n%s", u, out)
	}
}

// TestTab9Smoke checks the memory-reuse accounting: every system reports,
// and none preserves more than its footprint.
func TestTab9Smoke(t *testing.T) {
	out := quickOutput(t, "tab9")
	for _, sys := range []string{"kvstore", "lsmdb", "webcache-varnish", "webcache-squid", "boost", "particle"} {
		r := oneRow(t, out, sys, 5) // system, footprint, preserved, cleanup, reuse
		if reuse := parseFloat(t, strings.TrimSuffix(r[4], "%")); reuse <= 0 || reuse > 100 {
			t.Errorf("%s reuses %.1f%% of its footprint", sys, reuse)
		}
	}
}

// TestFig13Smoke checks the progress-recovery claim: PHOENIX resumes within
// the crashed iteration and recomputes none.
func TestFig13Smoke(t *testing.T) {
	// mode, at-crash, downtime, recomputed ("<n> iters"), final-iters
	r := oneRow(t, quickOutput(t, "fig13"), "PHOENIX", 6)
	if r[3] != "0" || r[4] != "iters" {
		t.Fatalf("phoenix recomputed work: %q", r)
	}
}

// TestFigShardSmoke checks the sharded fabric's recovery claims: every
// PHOENIX shard kill window closes with the shard recovered, and a live
// migration completes.
func TestFigShardSmoke(t *testing.T) {
	out := quickOutput(t, "figshard")
	windows, moves := 0, 0
	for _, f := range rows(out, "phoenix") {
		switch f[1] {
		case "shard":
			windows++
			if f[len(f)-1] != "(recovered)" {
				t.Errorf("kill window left open: %q", f)
			}
		case "move":
			moves++
		}
	}
	if windows == 0 || moves == 0 {
		t.Fatalf("%d kill windows and %d completed moves:\n%s", windows, moves, out)
	}
}

// TestFigExploreSmoke checks the quick exploration sweep: it covers every
// seed, draws both single-harness and fabric schedules, and every violating
// seed is shrunk to a minimal schedule.
func TestFigExploreSmoke(t *testing.T) {
	r := quick(t, "figexplore")
	sum := r.report.(explore.Summary)
	if len(sum.Results) != sum.Seeds {
		t.Errorf("sweep covered %d seeds, want %d", len(sum.Results), sum.Seeds)
	}
	for _, res := range sum.Results {
		if len(res.Violations) > 0 && res.Shrunk == nil {
			t.Errorf("seed %d violated without a shrunk artifact", res.Seed)
		}
	}
	out := r.text
	var single, fabric int
	modes := oneRow(t, out, "modes:", 3)
	if _, err := fmt.Sscanf(modes[1]+" "+modes[2], "single=%d shard=%d", &single, &fabric); err != nil || single == 0 || fabric == 0 {
		t.Errorf("sweep did not draw both modes: %q", modes)
	}
	for _, f := range rows(out, "seed") {
		if !slices.Contains(f, "minimal:") {
			t.Errorf("violating seed without a minimal schedule: %q", f)
		}
	}
}

// TestFigVetSmoke checks the vet differential's verdicts: every model
// verifies clean and is driven through calls and restarts, the verifier
// flags every seeded mutant at a source position, and its static verdicts
// agree with the dynamic restart audit.
func TestFigVetSmoke(t *testing.T) {
	r := quick(t, "figvet")
	sum := r.report.(explore.VetSummary)
	if len(sum.Models) != 5 {
		t.Errorf("campaign covered %d models, want 5", len(sum.Models))
	}
	for _, m := range sum.Models {
		if m.Calls == 0 || m.Restarts == 0 || len(m.Mutants) == 0 {
			t.Errorf("model %s: %d calls, %d restarts, %d mutants", m.Model, m.Calls, m.Restarts, len(m.Mutants))
		}
		for _, mu := range m.Mutants {
			if mu.Line == 0 {
				t.Errorf("model %s mutant %s#%d lacks a position", m.Model, mu.Fn, mu.NthStore)
			}
		}
	}
	out := r.text
	clean, flagged := 0, 0
	for _, f := range strings.Fields(out) {
		switch f {
		case "clean=true":
			clean++
		case "flagged=true":
			flagged++
		case "clean=false", "flagged=false":
			t.Errorf("figvet reports %s", f)
		}
	}
	// Five models, each verified statically and then by the campaign.
	if clean != 10 || flagged < 5 {
		t.Errorf("%d clean verdicts (want 10) and %d flagged mutants (want >= 5)", clean, flagged)
	}
	if v := oneRow(t, out, "vet:", 7); v[6] != "AGREE" {
		t.Errorf("static and dynamic verdicts disagree: %q", v)
	}
}

// TestConcurrencyClaims checks the concurrency campaign's headline contract,
// which an -update of its golden alone would let drop: every snapshot
// server present, at least 2x throughput at 4 readers, a PHOENIX restart
// ridden mid-run, a clean stale oracle, and a modelled parallel preserve
// below the serial one.
func TestConcurrencyClaims(t *testing.T) {
	outs := quick(t, "concurrency").report.([]ConcurrencyOutcome)
	names := SnapshotServers(1)
	if len(outs) != len(names) {
		t.Fatalf("campaign covered %d apps, want %d", len(outs), len(names))
	}
	for i, o := range outs {
		if o.App != names[i] {
			t.Errorf("outcome %d is %q, want %q", i, o.App, names[i])
		}
		if o.Speedup4v1 < 2.0 {
			t.Errorf("%s: 4-reader speedup %.2f below 2.0", o.App, o.Speedup4v1)
		}
		if o.PhoenixRestarts < 1 {
			t.Errorf("%s: campaign rode no PHOENIX restart", o.App)
		}
		if o.Stale != 0 {
			t.Errorf("%s: stale oracle fired %d times", o.App, o.Stale)
		}
		if o.PreserveParallelNs >= o.PreserveSerialNs {
			t.Errorf("%s: modelled parallel preserve %dns not below serial %dns",
				o.App, o.PreserveParallelNs, o.PreserveSerialNs)
		}
	}
}

// TestAppFilter covers -app: an empty name keeps every item, an unknown one
// fails the entry (figcluster's and figexplore's) and lists the valid names,
// and kvstore selects exactly one system of figcluster's one-shard fabric.
// None of it runs a campaign or an exploration seed.
func TestAppFilter(t *testing.T) {
	all := []string{"kvstore", "lsmdb"}
	name := func(s string) string { return s }
	if got, err := only(all, name, ""); err != nil || !slices.Equal(got, all) {
		t.Errorf("empty app kept %v (%v), want every item", got, err)
	}
	const listed = `unknown app "redis" (have [boost kvstore lsmdb particle webcache-squid webcache-varnish])`
	if _, err := RunFigCluster(Options{App: "redis"}); err == nil || err.Error() != listed {
		t.Errorf("figcluster -app redis: %v, want an error listing the valid names", err)
	}
	var out bytes.Buffer
	if rep, err := RunFigExplore(Options{App: "redis", Out: &out}); err == nil || err.Error() != listed || rep != nil || out.Len() != 0 {
		t.Errorf("figexplore -app redis: report %v, %d bytes printed, error %v; want no sweep and an error listing the valid names", rep, out.Len(), err)
	}
	systems, err := fabricSystems(Options{Seed: 1, App: "kvstore"}, 1)
	if err != nil || len(systems) != 1 || systems[0].Name != "kvstore" {
		t.Errorf("figcluster -app kvstore selected %d systems (%v), want kvstore alone", len(systems), err)
	}
}

// TestAblations checks each ablation's claim: moving PTEs beats copying
// pages at every size, the cleanup adds exactly its fork to the restart
// window and still reclaims memory, and the analyzer's unsafe-region
// placement rejects fewer crashes than critical-section-style blanket
// marking.
func TestAblations(t *testing.T) {
	sizes := 0
	for _, line := range strings.Split(quickOutput(t, "abl-zerocopy"), "\n")[1:] {
		f := strings.Fields(line) // preserved, zero-copy, page-copy, hashing, ratio
		if len(f) != 5 {
			continue
		}
		sizes++
		if zero, cp := parseDur(t, f[1]), parseDur(t, f[2]); cp <= zero {
			t.Errorf("page copying (%v) not slower than zero-copy (%v) at %s", cp, zero, f[0])
		}
	}
	if sizes != 2 {
		t.Errorf("abl-zerocopy printed %d sizes, want 2", sizes)
	}

	// The printed durations are rounded to the microsecond, so the cleanup
	// clause compares the measured ones.
	off, err := ablCleanup(Options{Quick: true, Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	on, err := ablCleanup(Options{Quick: true, Seed: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if diff := on.downtime - off.downtime; on.fork <= 0 || diff != on.fork {
		t.Errorf("cleanup added %v to the restart window, want exactly its fork charge %v", diff, on.fork)
	}
	if on.swept == 0 {
		t.Errorf("cleanup swept nothing: %+v", on)
	}

	out := quickOutput(t, "abl-regions")
	pct := map[string]float64{}
	for _, name := range []string{"analyzer", "crit-section"} {
		r := oneRow(t, out, name, 4) // placement, crashes, unsafe, rejected%
		pct[name] = parseFloat(t, strings.TrimSuffix(r[3], "%"))
	}
	if pct["analyzer"] == 0 || pct["analyzer"] >= pct["crit-section"] {
		t.Fatalf("precision ablation: analyzer %.1f%% vs crit-section %.1f%%", pct["analyzer"], pct["crit-section"])
	}
}

// preserveMetrics parses the preserve entry's output into its 22 metrics,
// each of which must be positive.
func preserveMetrics(t *testing.T) map[string]int64 {
	t.Helper()
	out := quickOutput(t, "preserve")
	ms := map[string]int64{}
	for _, line := range strings.Split(out, "\n")[1:] {
		var name, unit string
		var v int64
		if n, _ := fmt.Sscanf(line, "%s %d %s", &name, &v, &unit); n != 3 {
			continue
		}
		if v <= 0 {
			t.Errorf("metric %s is non-positive: %d %s", name, v, unit)
		}
		ms[name] = v
	}
	if len(ms) != 22 {
		t.Fatalf("parsed %d metrics, want 22:\n%s", len(ms), out)
	}
	return ms
}

// TestIncrementalSpeedup pins the incremental-preservation claim: preserve
// commit at 1% dirty is at least 5x cheaper than at 100% dirty for the
// 10k-page set, and a fully dirty incremental commit costs no more than the
// cold one.
func TestIncrementalSpeedup(t *testing.T) {
	ms := preserveMetrics(t)
	d1, d100, full := ms["preserve_commit_dirty_1pct"], ms["preserve_commit_dirty_100pct"], ms["preserve_commit_full"]
	if ratio := float64(d100) / float64(d1); ratio < 5 {
		t.Errorf("1%% dirty commit only %.1fx cheaper than 100%% (want >= 5x): %d vs %d ns", ratio, d1, d100)
	}
	if d100 > full {
		t.Errorf("100%% dirty incremental commit (%d) slower than the cold full commit (%d)", d100, full)
	}
}

// TestMigrationCutoverScaling pins the live-migration claim the shard fabric
// rides: the cutover freeze window at a 1% final delta is far smaller than
// the degenerate stop-and-copy cutover at 100%, the steady-state delta round
// beats the first full-copy round, and the round trip ships the full set
// once plus two 1% deltas in three rounds.
func TestMigrationCutoverScaling(t *testing.T) {
	ms := preserveMetrics(t)
	c1, c100 := ms["migrate_cutover_dirty_1pct"], ms["migrate_cutover_dirty_100pct"]
	if ratio := float64(c100) / float64(c1); ratio < 3 {
		t.Errorf("1%%-delta cutover only %.1fx faster than stop-and-copy (want >= 3x): %d vs %d ns", ratio, c1, c100)
	}
	if delta, first := ms["migrate_delta_round_1pct"], ms["migrate_first_round"]; delta >= first {
		t.Errorf("steady-state round (%d ns) not cheaper than full-copy round (%d ns)", delta, first)
	}
	if r := ms["migrate_rounds_1pct"]; r != 3 {
		t.Errorf("round trip ran %d rounds, want 3 (full, delta, cutover)", r)
	}
	if got, want := ms["migrate_pages_shipped_1pct"], int64(perftraj.Pages+2*perftraj.Pages/100); got != want {
		t.Errorf("shipped %d pages, want %d (full set + two 1%% deltas)", got, want)
	}
}
