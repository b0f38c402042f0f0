package experiments

import (
	"fmt"
	"time"

	"phoenix/internal/kernel"
	"phoenix/internal/metrics"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"

	"phoenix/internal/apps/kvstore"
)

// buildBigKV builds the kvstore with the Figure 1/12 dataset — large enough
// that snapshot unmarshalling dominates builtin recovery, as the paper's
// 6 GB RDB does at full scale.
func buildBigKV(cfg recovery.Config, o Options) (*sysHarness, error) {
	records := uint64(300000)
	if o.Quick {
		records = 50000
	}
	m := kernel.NewMachine(o.Seed)
	kv := kvstore.New(kvstore.Config{Cleanup: true}, nil)
	gen := workload.NewYCSB(workload.YCSBConfig{
		Seed: o.Seed, Records: records, ReadFrac: 0.9, InsertFrac: 0.1,
		ValueSize: 256, ZipfianKeys: true,
	})
	h := recovery.NewHarness(m, cfg, kv, gen, nil)
	if err := h.Boot(); err != nil {
		return nil, err
	}
	kv.Load(gen.LoadKeys(), 256)
	return &sysHarness{h: h, arm: kv.ArmBug, dmp: func() map[string]string { return kv.Dump() }}, nil
}

// runScenario warms a system, fires a scripted bug, and keeps serving until
// the observation window ends, returning the harness for inspection.
func runScenario(system, bug string, cfg recovery.Config, o Options, warm, observe time.Duration) (*sysHarness, error) {
	sh, err := buildSystem(system, cfg, o, nil)
	if err != nil {
		return nil, err
	}
	// Dwell a fraction of a checkpoint interval past the warm phase so the
	// crash does not land suspiciously right after a snapshot.
	if err := sh.h.RunUntil(sh.h.M.Clock.Now() + warm + warm/5); err != nil {
		return nil, err
	}
	sh.arm(bug)
	if err := sh.h.RunUntil(sh.h.M.Clock.Now() + observe); err != nil {
		return nil, err
	}
	return sh, nil
}

// printSeries renders a timeline as (t, rate) pairs at 1 s resolution.
func printSeries(o Options, label string, tl *metrics.Timeline) {
	pts := tl.Series()
	fmt.Fprintf(o.Out, "series %s (t[s] rate[ops/s]):\n", label)
	step := int(time.Second / tl.Bucket)
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(pts); i += step {
		// Aggregate one second.
		var sum float64
		n := 0
		for j := i; j < i+step && j < len(pts); j++ {
			sum += pts[j].Rate
			n++
		}
		fmt.Fprintf(o.Out, "  %6.1f %12.0f\n", pts[i].T.Seconds(), sum/float64(n))
	}
}

// fig1Windows returns the warm/observe windows for the Redis timeline.
func fig1Windows(o Options) (time.Duration, time.Duration) {
	if o.Quick {
		return 3 * time.Second, 10 * time.Second
	}
	return 10 * time.Second, 30 * time.Second
}

// RunFig1 reproduces Figure 1: the Redis #12290 (R4 infinite loop) service
// timeline under builtin RDB recovery — long downtime from snapshot
// unmarshalling, lost updates since the last save, and a depressed
// post-restart hit rate.
func RunFig1(o Options) error {
	o.fill()
	warm, observe := fig1Windows(o)
	cfg := recovery.Config{
		Mode:               recovery.ModeBuiltin,
		CheckpointInterval: warm / 2, // "RDB saved two minutes ago", scaled
		WatchdogTimeout:    2 * time.Second,
	}
	sh, err := buildBigKV(cfg, o)
	if err != nil {
		return err
	}
	if err := sh.h.RunUntil(sh.h.M.Clock.Now() + warm + warm/5); err != nil {
		return err
	}
	beforeCrash := len(sh.dmp())
	sh.arm("R4")
	if err := sh.h.RunRequests(1); err != nil { // the crashing request
		return err
	}
	afterRecovery := len(sh.dmp())
	if err := sh.h.RunUntil(sh.h.M.Clock.Now() + observe); err != nil {
		return err
	}
	sum := sh.h.TL.Summarize()
	fmt.Fprintf(o.Out, "Redis R4 (#12290) under builtin RDB recovery:\n")
	fmt.Fprintf(o.Out, "  lost updates       %d keys (inserted after the last RDB save; §2.1's two-minute gap)\n",
		beforeCrash-afterRecovery)
	fmt.Fprintf(o.Out, "  steady rate        %.0f effective ops/s\n", sh.h.TL.SteadyRate())
	fmt.Fprintf(o.Out, "  downtime           %s (includes %s hang until watchdog)\n",
		fmtDur(sum.Downtime), fmtDur(cfg.WatchdogTimeout))
	fmt.Fprintf(o.Out, "  5s-availability    %.2f of pre-failure\n", sum.FifthSecond)
	if sum.Recovered90 {
		fmt.Fprintf(o.Out, "  90%%-recovery       %s\n", fmtDur(sum.Recovery90))
	} else {
		fmt.Fprintf(o.Out, "  90%%-recovery       not reached in window\n")
	}
	printSeries(o, "builtin", sh.h.TL)
	return nil
}

// RunFig12 reproduces Figure 12: the same R4 scenario across all four
// recovery mechanisms.
func RunFig12(o Options) error {
	o.fill()
	warm, observe := fig1Windows(o)
	fmt.Fprintf(o.Out, "%-10s %-12s %-10s %-12s\n", "mode", "downtime", "5s-avail", "90%-rec")
	for _, mode := range []recovery.Mode{recovery.ModeVanilla, recovery.ModeBuiltin, recovery.ModeCRIU, recovery.ModePhoenix} {
		cfg := recovery.Config{
			Mode:            mode,
			UnsafeRegions:   mode == recovery.ModePhoenix,
			WatchdogTimeout: 2 * time.Second,
		}
		if mode == recovery.ModeBuiltin || mode == recovery.ModeCRIU {
			cfg.CheckpointInterval = warm / 2
		}
		if mode == recovery.ModePhoenix {
			// PHOENIX deployments keep the app's own persistence cadence.
			cfg.CheckpointInterval = warm / 2
		}
		sh, err := buildBigKV(cfg, o)
		if err != nil {
			return err
		}
		if err := sh.h.RunUntil(sh.h.M.Clock.Now() + warm); err != nil {
			return err
		}
		sh.arm("R4")
		if err := sh.h.RunUntil(sh.h.M.Clock.Now() + observe); err != nil {
			return err
		}
		sum := sh.h.TL.Summarize()
		rec := "never"
		if sum.Recovered90 {
			rec = fmtDur(sum.Recovery90)
		}
		fmt.Fprintf(o.Out, "%-10s %-12s %-10.2f %-12s\n", mode, fmtDur(sum.Downtime), sum.FifthSecond, rec)
		printSeries(o, mode.String(), sh.h.TL)
	}
	return nil
}

// RunFig11 reproduces Figure 11: the Varnish #2796 (VA3) deadlock. The
// pool-herder watchdog terminates the stalled worker after 5 s of queue
// inactivity; PHOENIX discards the deadlocked transient state (requests and
// queues) while keeping the cache, so service resumes at a high hit rate.
func RunFig11(o Options) error {
	o.fill()
	warm, observe := fig1Windows(o)
	fmt.Fprintf(o.Out, "%-10s %-12s %-10s %-12s\n", "mode", "downtime", "5s-avail", "90%-rec")
	for _, mode := range []recovery.Mode{recovery.ModeVanilla, recovery.ModeCRIU, recovery.ModePhoenix} {
		cfg := recovery.Config{
			Mode:            mode,
			UnsafeRegions:   mode == recovery.ModePhoenix,
			WatchdogTimeout: 5 * time.Second, // pool-herder quiet time
		}
		if mode == recovery.ModeCRIU {
			cfg.CheckpointInterval = warm / 2
		}
		sh, err := runScenario("webcache-varnish", "VA3", cfg, o, warm, observe)
		if err != nil {
			return err
		}
		sum := sh.h.TL.Summarize()
		rec := "never"
		if sum.Recovered90 {
			rec = fmtDur(sum.Recovery90)
		}
		fmt.Fprintf(o.Out, "%-10s %-12s %-10.2f %-12s\n", mode, fmtDur(sum.Downtime), sum.FifthSecond, rec)
		if mode == recovery.ModePhoenix {
			printSeries(o, "phoenix", sh.h.TL)
		}
	}
	return nil
}

// RunFig13 reproduces Figure 13: the XGBoost training-progress timeline.
// The crash lands mid-training; Builtin reinitialises, loads a stale model
// checkpoint, and recomputes the lost iterations, while PHOENIX resumes
// within the crashed iteration.
func RunFig13(o Options) error {
	o.fill()
	warm, observe := 20*time.Second, 60*time.Second
	if o.Quick {
		warm, observe = 6*time.Second, 20*time.Second
	}
	fmt.Fprintf(o.Out, "%-10s %-10s %-12s %-14s %-12s\n",
		"mode", "at-crash", "downtime", "recomputed", "final-iters")
	for _, mode := range []recovery.Mode{recovery.ModeVanilla, recovery.ModeBuiltin, recovery.ModeCRIU, recovery.ModePhoenix} {
		cfg := recovery.Config{Mode: mode, WatchdogTimeout: 2 * time.Second}
		if mode == recovery.ModeBuiltin || mode == recovery.ModeCRIU {
			cfg.CheckpointInterval = warm / 3
		}
		sh, err := buildSystem("boost", cfg, o, nil)
		if err != nil {
			return err
		}
		if err := sh.h.RunUntil(sh.h.M.Clock.Now() + warm + warm/5); err != nil {
			return err
		}
		atCrash := sh.dmp()["ntrees"]
		sh.arm("X1")
		if err := sh.h.RunUntil(sh.h.M.Clock.Now() + observe); err != nil {
			return err
		}
		sum := sh.h.TL.Summarize()
		final := sh.dmp()["ntrees"]
		// Recomputed iterations show up as non-effective work on the
		// timeline; count them from the app stats via the dump delta.
		fmt.Fprintf(o.Out, "%-10s %-10s %-12s %-14s %-12s\n",
			mode, atCrash, fmtDur(sum.Downtime), recomputedNote(sh), final)
		if mode == recovery.ModePhoenix || mode == recovery.ModeBuiltin {
			printSeries(o, mode.String(), sh.h.TL)
		}
	}
	return nil
}

func recomputedNote(sh *sysHarness) string {
	if sh.recomputed == nil {
		return "-"
	}
	return fmt.Sprintf("%d iters", sh.recomputed())
}
