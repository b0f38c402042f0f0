package experiments

import (
	"fmt"
	"time"

	"phoenix/internal/bugs"
	"phoenix/internal/recovery"
)

// RunFig10 reproduces Figure 10: for every reproduced bug and every
// applicable recovery mechanism, run the system's standard benchmark,
// trigger the fault mid-run, keep serving, and report the three
// availability metrics (downtime, relative effective availability at the
// fifth second after restart, time to 90% recovery).
//
// Applicability follows the paper: LevelDB has no Vanilla (it always
// journals); the web caches have no Builtin (no persistence). Quick runs
// only the first bug of each system.
func RunFig10(o Options) error {
	o.fill()
	warm, observe := 10*time.Second, 30*time.Second
	cases := bugs.All()
	if o.Quick {
		warm, observe = 3*time.Second, 9*time.Second
		cases = firstPerSystem(cases)
	}
	fmt.Fprintf(o.Out, "%-5s %-18s %-9s %-12s %-9s %-12s %s\n",
		"bug", "system", "mode", "downtime", "5s-avail", "90%-rec", "note")
	for _, bug := range cases {
		for _, mode := range applicableModes(bug.System) {
			cfg := recovery.Config{
				Mode:            mode,
				UnsafeRegions:   mode == recovery.ModePhoenix,
				WatchdogTimeout: watchdogFor(bug),
			}
			if mode == recovery.ModeBuiltin || mode == recovery.ModeCRIU {
				cfg.CheckpointInterval = warm / 2
			}
			if mode == recovery.ModePhoenix && (bug.System == "kvstore" || bug.System == "lsmdb") {
				// Keep the app's own persistence cadence alive under
				// PHOENIX, as the paper's deployments do.
				cfg.CheckpointInterval = warm / 2
			}
			sh, err := runScenario(bug.System, bug.ID, cfg, o, warm, observe)
			if err != nil {
				return fmt.Errorf("fig10 %s/%s: %w", bug.ID, mode, err)
			}
			sum := sh.h.TL.Summarize()
			rec := "never"
			if sum.Recovered90 {
				rec = fmtDur(sum.Recovery90)
			}
			note := ""
			if sh.h.Stat.UnsafeFallbacks > 0 {
				note = "unsafe-region fallback"
			}
			if sh.h.Stat.Failures == 0 {
				note = "fault did not manifest"
			}
			fmt.Fprintf(o.Out, "%-5s %-18s %-9s %-12s %-9.2f %-12s %s\n",
				bug.ID, bug.System, mode, fmtDur(sum.Downtime), sum.FifthSecond, rec, note)
		}
	}
	return nil
}

// firstPerSystem keeps the first bug of each system, in catalogue order.
func firstPerSystem(all []bugs.Bug) []bugs.Bug {
	seen := map[string]bool{}
	var out []bugs.Bug
	for _, b := range all {
		if !seen[b.System] {
			seen[b.System] = true
			out = append(out, b)
		}
	}
	return out
}

func applicableModes(system string) []recovery.Mode {
	switch system {
	case "lsmdb":
		return []recovery.Mode{recovery.ModeBuiltin, recovery.ModeCRIU, recovery.ModePhoenix}
	case "webcache-varnish", "webcache-squid":
		return []recovery.Mode{recovery.ModeVanilla, recovery.ModeCRIU, recovery.ModePhoenix}
	default:
		return []recovery.Mode{recovery.ModeVanilla, recovery.ModeBuiltin, recovery.ModeCRIU, recovery.ModePhoenix}
	}
}

func watchdogFor(b bugs.Bug) time.Duration {
	if b.ID == "VA3" {
		return 5 * time.Second // pool-herder quiet time (§4.3.3)
	}
	return 2 * time.Second
}
