// Package experiments implements one runnable reproduction per table and
// figure of the paper's evaluation (§4). Each experiment prints the same
// rows/series the paper reports; EXPERIMENTS.md records the paper-vs-
// measured comparison and the scale factors used.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"

	"phoenix/internal/apps/boost"
	"phoenix/internal/apps/kvstore"
	"phoenix/internal/apps/lsmdb"
	"phoenix/internal/apps/particle"
	"phoenix/internal/apps/registry"
	"phoenix/internal/apps/webcache"
)

// Options controls an experiment run.
type Options struct {
	// Quick shrinks workloads for CI/bench use; the full sizes are the
	// defaults used to produce EXPERIMENTS.md.
	Quick bool
	// Seed drives all deterministic randomness.
	Seed int64
	// Out receives the experiment's report.
	Out io.Writer
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) error
}

// All returns the experiment registry: the paper's tables and figures in
// paper order, then the design-choice ablations and the preserve-path
// trajectory, which go beyond the paper.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Table 1: real-world failure study taxonomy", RunTab1},
		{"fig1", "Figure 1: Redis #12290 downtime and warm-up under builtin recovery", RunFig1},
		{"fig9", "Figure 9: PHOENIX restart latency vs preserved memory size", RunFig9},
		{"tab3", "Table 3: evaluated systems and preserved state", RunTab3},
		{"tab4", "Table 4: porting effort", RunTab4},
		{"tab5", "Table 5: reproduced real-world bugs", RunTab5},
		{"fig10", "Figure 10: availability of all bug cases under four recovery mechanisms", RunFig10},
		{"fig11", "Figure 11: Varnish #2796 deadlock timeline", RunFig11},
		{"fig12", "Figure 12: Redis #12290 timeline across recovery mechanisms", RunFig12},
		{"fig13", "Figure 13: XGBoost progress recovery timeline", RunFig13},
		{"tab6", "Table 6: injected fault types", RunTab6},
		{"tab7", "Table 7: large-scale fault injection", RunTab7},
		{"tab8", "Table 8: runtime overhead", RunTab8},
		{"tab9", "Table 9: memory reuse", RunTab9},
		{"figcluster", "Cluster figure: availability under traffic for replicated PHOENIX vs builtin vs vanilla", RunFigCluster},
		{"figshard", "Shard figure: sharded fabric availability with per-shard kills and preserve-riding live migration", RunFigShard},
		{"figexplore", "Exploration campaign: randomized fault-schedule search with oracle checking and failing-seed shrinking", RunFigExplore},
		{"figvet", "Vet differential: points-to preservation-safety verifier vs dynamic restart-audit ground truth", RunFigVet},
		{"abl-zerocopy", "Ablation: zero-copy PTE transfer vs page copying", RunAblZeroCopy},
		{"abl-cleanup", "Ablation: post-restart mark-and-sweep cleanup on vs off", RunAblCleanup},
		{"abl-regions", "Ablation: tight vs conservative unsafe-region instrumentation", RunAblRegions},
		{"preserve", "Preserve-path trajectory: preserve_exec, rewind, migration and serving costs on a 10k-page set", RunPreserve},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared builders ---

// sysHarness bundles one application instance under one recovery config.
type sysHarness struct {
	h   *recovery.Harness
	arm func(bug string) // schedules a scripted bug
	dmp func() map[string]string
	// recomputed reports redone work units (compute apps only; nil else).
	recomputed func() uint64
}

// buildSystem constructs a named system with its standard workload under
// the given recovery configuration, boots it, and pre-loads its dataset.
func buildSystem(system string, cfg recovery.Config, o Options, inj *faultinject.Injector) (*sysHarness, error) {
	m := kernel.NewMachine(o.Seed)
	records := uint64(20000)
	if o.Quick {
		records = 4000
	}
	boot := func(app recovery.App, gen workload.Generator) (*recovery.Harness, error) {
		h := recovery.NewHarness(m, cfg, app, gen, inj)
		if err := h.Boot(); err != nil {
			return nil, err
		}
		return h, nil
	}
	switch system {
	case "kvstore":
		kv := kvstore.New(kvstore.Config{RedoLog: cfg.CrossCheck, Cleanup: true}, inj)
		gen := workload.NewYCSB(workload.YCSBConfig{
			Seed: o.Seed, Records: records, ReadFrac: 0.88, InsertFrac: 0.10,
			ValueSize: 128, ZipfianKeys: true,
		})
		h, err := boot(kv, gen)
		if err != nil {
			return nil, err
		}
		keys := make([]string, records)
		for i := range keys {
			keys[i] = fmt.Sprintf("user%010d", i)
		}
		kv.Load(keys, 128)
		return &sysHarness{h: h, arm: kv.ArmBug, dmp: func() map[string]string { return kv.Dump() }}, nil
	case "lsmdb":
		db := lsmdb.New(lsmdb.Config{MemtableThreshold: 8 << 20, Cleanup: true}, inj)
		h, err := boot(db, workload.NewFillSeq(128))
		if err != nil {
			return nil, err
		}
		return &sysHarness{h: h, arm: db.ArmBug, dmp: func() map[string]string { return db.Dump() }}, nil
	case "webcache-varnish", "webcache-squid":
		flavor := webcache.FlavorVarnish
		if system == "webcache-squid" {
			flavor = webcache.FlavorSquid
		}
		web := workload.NewWeb(workload.WebConfig{Seed: o.Seed, URLs: records, MeanSize: 8 << 10})
		c := webcache.New(webcache.Config{Flavor: flavor, CapacityBytes: 512 << 20, Cleanup: true}, web, inj)
		h, err := boot(c, web)
		if err != nil {
			return nil, err
		}
		return &sysHarness{h: h, arm: c.ArmBug, dmp: func() map[string]string { return c.Dump() }}, nil
	case "boost":
		samples := 2000
		if o.Quick {
			samples = 500
		}
		tr := boost.New(boost.Config{Samples: samples, Features: 8, MaxIters: 4096, WorkScale: 400}, inj)
		h, err := boot(tr, &registry.StepGen{})
		if err != nil {
			return nil, err
		}
		return &sysHarness{h: h, arm: tr.ArmBug, dmp: func() map[string]string { return tr.Dump() },
			recomputed: func() uint64 { return tr.Stats().Recomputed }}, nil
	case "particle":
		parts := 4000
		if o.Quick {
			parts = 1000
		}
		s := particle.New(particle.Config{Particles: parts, Cells: 128, WorkScale: 400}, inj)
		h, err := boot(s, &registry.StepGen{})
		if err != nil {
			return nil, err
		}
		return &sysHarness{h: h, arm: s.ArmBug, dmp: func() map[string]string { return s.Dump() },
			recomputed: func() uint64 { return s.Stats().Recomputed }}, nil
	}
	return nil, fmt.Errorf("experiments: unknown system %q", system)
}

// fmtDur renders a duration in seconds with ms precision.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// sortedKeys returns map keys sorted.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
