// Command phxinject runs fault-injection campaigns. The default campaign is
// the IR-level one against the instrumented mini-IR model — the distilled
// version of §4.4's experiment: inject one instruction-level fault, run the
// workload, crash at random points, and check the state-stack recovery
// condition against the ground truth consistency of the preserved
// dictionary. -campaign selects the system-level campaigns instead:
// "atomicity" replays recovery-path faults (including Byzantine bit flips in
// the preserved frames) against every application and requires no torn
// survivor; "escalation" drives repeated preserved-state corruption through
// the crash-loop breaker and requires the full detect → escalate →
// de-escalate cycle; "cluster" drives client traffic through a replicated
// serving tier over a simulated network while nodes are killed, drained, and
// partitioned on a schedule, and requires PHOENIX's measured availability to
// strictly beat a vanilla restart's under identical faults; "shard" drives
// open-loop traffic through a sharded serving fabric while replicas are
// killed and shards are live-migrated mid-traffic, and requires PHOENIX to
// beat vanilla on availability and on the migration cutover window (delta
// convergence vs stop-and-copy), with zero lost acked writes and zero
// non-owner serves; "explore" sweeps randomized fault schedules (one per
// seed) against per-app invariant oracles, shrinking every violation to a
// minimal replayable artifact; "vet" differentially validates the phxvet
// static verifier — every application model must verify clean AND stay
// violation-free under randomized dynamic schedules, and every seeded
// dangling-store mutant must be flagged statically at the planted position
// and manifest dynamically; "microreboot" measures the recovery-granularity
// windows — the simulated unavailability of the same mid-request fault
// recovered by request rewind, component microreboot, PHOENIX preserve_exec,
// builtin restart, and vanilla restart — and requires each finer granularity
// to strictly beat the coarser ones; "concurrency" serves reads off
// committed MVCC snapshots at 1/4/16 readers across a PHOENIX kill and
// requires the reader speedup and a clean stale oracle.
//
// Every campaign is one entry of the campaigns table. A campaign's contract
// violation exits non-zero; -json prints the full report as deterministic
// JSON. The golden test runs every entry at its pinned configuration and
// byte-compares the JSON with testdata/golden/<name>.json
// (`go test ./cmd/phxinject -update` rewrites the files).
//
// Usage:
//
//	phxinject -runs 200                  # IR campaign on the bundled kvmodel
//	phxinject -runs 200 -seed 7 -v
//	phxinject -campaign atomicity        # recovery-path faults, all apps
//	phxinject -campaign escalation -app kvstore -json
//	phxinject -campaign cluster          # availability under traffic, all apps
//	phxinject -campaign shard -app kvstore -json
//	phxinject -campaign explore -seeds 200        # randomized schedule search
//	phxinject -campaign vet -seeds 50 -app kvstore -json
//	phxinject -campaign microreboot -app boost -json
//	phxinject -campaign concurrency
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"phoenix/internal/apps/registry"
	"phoenix/internal/cluster"
	"phoenix/internal/explore"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

// config is what a campaign reads from the command line.
type config struct {
	Seed    int64
	App     string // restrict to one application ("" = all)
	Seeds   int    // explore/vet: consecutive seeds to sweep
	Runs    int    // ir: injection runs
	Verbose bool
}

// campaign is one table entry. cfg is the configuration its golden file
// pins; run returns the report -json marshals, the text printed otherwise,
// and the campaign's contract violation, if any.
type campaign struct {
	name string
	cfg  config
	run  func(config) (report any, text string, err error)
}

// campaigns returns the campaign table in CLI order.
func campaigns() []campaign {
	base := config{Seed: 1, Seeds: 200, Runs: 200}
	sweep := func(seeds int) config { c := base; c.Seeds = seeds; return c }
	return []campaign{
		{"ir", base, irCampaign},
		{"atomicity", base, func(c config) (any, string, error) {
			return perApp("atomicity", c, func(mk recovery.AppFactory) (any, string, error) {
				outcomes, err := recovery.CheckAtomicity(mk, recovery.AtomicityConfig{Seed: c.Seed, Warm: 60, Settle: 20})
				fired := 0
				for _, o := range outcomes {
					if o.Fired {
						fired++
					}
				}
				return outcomes, fmt.Sprintf("%d/%d probes fired, no torn survivor", fired, len(outcomes)), err
			})
		}},
		{"escalation", base, func(c config) (any, string, error) {
			return perApp("escalation", c, func(mk recovery.AppFactory) (any, string, error) {
				out, err := recovery.CheckEscalation(mk, recovery.EscalationConfig{Seed: c.Seed})
				return out, out.String(), err
			})
		}},
		{"cluster", base, func(c config) (any, string, error) {
			systems, err := only(registry.ClusterSystems(c.Seed), func(s cluster.System) string { return s.Name }, c.App, registry.Names())
			if err != nil {
				return nil, "", err
			}
			res, err := cluster.CheckCluster(systems, cluster.Options{Seed: c.Seed})
			return res, concat(res, cluster.FmtComparison), err
		}},
		{"shard", base, func(c config) (any, string, error) {
			systems, err := only(registry.ShardSystems(c.Seed), func(s shard.System) string { return s.Name }, c.App, registry.ShardNames())
			if err != nil {
				return nil, "", err
			}
			res, err := shard.CheckShard(systems, shard.Options{Seed: c.Seed})
			return res, concat(res, shard.FmtComparison), err
		}},
		{"explore", sweep(50), func(c config) (any, string, error) {
			sum, err := explore.CheckExplore(explore.Options{Seeds: c.Seeds, Start: c.Seed, App: c.App, Log: logTo(c.Verbose)})
			return sum, explore.FmtSummary(sum), err
		}},
		{"vet", sweep(200), func(c config) (any, string, error) {
			sum, err := explore.CheckVet(explore.VetOptions{Seeds: c.Seeds, Start: c.Seed, Model: c.App, Log: logTo(c.Verbose)})
			return sum, explore.FmtVetSummary(sum), err
		}},
		{"microreboot", base, func(c config) (any, string, error) {
			specs, err := only(registry.MicrorebootSpecs(c.Seed), func(s recovery.MicrorebootSpec) string { return s.Name }, c.App, registry.Names())
			if err != nil {
				return nil, "", err
			}
			res, err := recovery.CheckMicroreboot(specs, recovery.MicrorebootConfig{Seed: c.Seed})
			return res, recovery.FmtMicroreboot(res), err
		}},
		{"concurrency", base, func(c config) (any, string, error) {
			specs, err := only(registry.ConcurrencySpecs(c.Seed), func(s recovery.ConcurrencySpec) string { return s.Name }, c.App, registry.ConcurrencyNames())
			if err != nil {
				return nil, "", err
			}
			res, err := recovery.CheckConcurrency(specs, recovery.ConcurrencyConfig{Seed: c.Seed})
			return res, recovery.FmtConcurrency(res), err
		}},
	}
}

func main() {
	var (
		runs    = flag.Int("runs", 200, "number of injection runs (ir campaign)")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		v       = flag.Bool("v", false, "print per-run outcomes")
		name    = flag.String("campaign", "ir", "campaign to run: "+strings.Join(campaignNames(), ", "))
		app     = flag.String("app", "", "restrict system-level campaigns to one application (default: all)")
		jsonOut = flag.Bool("json", false, "emit the full report as deterministic JSON")
		seeds   = flag.Int("seeds", 200, "explore/vet campaigns: number of consecutive seeds to sweep")
	)
	flag.Parse()

	for _, c := range campaigns() {
		if c.name != *name {
			continue
		}
		report, text, err := c.run(config{Seed: *seed, App: *app, Seeds: *seeds, Runs: *runs, Verbose: *v})
		if report != nil {
			if *jsonOut {
				out, jerr := marshalReport(report)
				if jerr != nil {
					fatalf("%v", jerr)
				}
				os.Stdout.Write(out)
			} else {
				fmt.Print(text)
			}
		}
		if err != nil {
			fatalf("%v", err)
		}
		return
	}
	fatalf("unknown campaign %q (want %s)", *name, strings.Join(campaignNames(), ", "))
}

func campaignNames() []string {
	var names []string
	for _, c := range campaigns() {
		names = append(names, c.name)
	}
	return names
}

// marshalReport is the -json encoding of a campaign report, newline-ended.
func marshalReport(report any) ([]byte, error) {
	out, err := json.Marshal(report)
	return append(out, '\n'), err
}

// only restricts a campaign's per-application items to those named app; an
// unknown name is an error listing have. An empty app keeps every item.
func only[T any](items []T, name func(T) string, app string, have []string) ([]T, error) {
	if app == "" {
		return items, nil
	}
	var keep []T
	for _, it := range items {
		if name(it) == app {
			keep = append(keep, it)
		}
	}
	if keep == nil {
		return nil, fmt.Errorf("unknown app %q (have %v)", app, have)
	}
	return keep, nil
}

// appOutcome is one application's entry in a per-app campaign report.
type appOutcome struct {
	App     string `json:"app"`
	Outcome any    `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// perApp runs check against every registry application (or the -app one). A
// failing application is reported and counted rather than stopping the
// campaign; any failure fails the whole campaign.
func perApp(kind string, c config, check func(recovery.AppFactory) (outcome any, summary string, err error)) (any, string, error) {
	names, err := only(registry.Names(), func(n string) string { return n }, c.App, registry.Names())
	if err != nil {
		return nil, "", err
	}
	factories := registry.Factories(c.Seed)
	var (
		report []appOutcome
		text   strings.Builder
		failed int
	)
	for _, name := range names {
		outcome, summary, err := check(factories[name])
		r := appOutcome{App: name, Outcome: outcome}
		if err != nil {
			failed++
			r.Error = err.Error()
			fmt.Fprintf(&text, "%-18s FAIL: %v\n", name, err)
		} else {
			fmt.Fprintf(&text, "%-18s ok: %s\n", name, summary)
		}
		report = append(report, r)
	}
	if failed > 0 {
		return report, text.String(), fmt.Errorf("%s campaign: %d application(s) failed", kind, failed)
	}
	return report, text.String(), nil
}

// concat renders every result and joins the blocks.
func concat[T any](res []T, render func(T) string) string {
	var b strings.Builder
	for _, r := range res {
		b.WriteString(render(r))
	}
	return b.String()
}

// logTo is the explore/vet progress log: stderr under -v, none otherwise.
func logTo(verbose bool) io.Writer {
	if verbose {
		return os.Stderr
	}
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phxinject: "+format+"\n", args...)
	os.Exit(1)
}
