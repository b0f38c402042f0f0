package experiments

import (
	"fmt"

	"phoenix/internal/apps/registry"
	"phoenix/internal/recovery"
)

// The single-harness recovery campaigns. Each runs every registry
// application (or the o.App one) at one fixed size, so Quick changes
// nothing, and fails on its contract.

// RunAtomicity replays recovery-path faults, Byzantine bit flips in the
// preserved frames included, against every application and requires no
// torn survivor.
func RunAtomicity(o Options) (any, error) {
	o.fill()
	return perApp(o, "atomicity", func(mk recovery.AppFactory) (any, string, error) {
		outcomes, err := recovery.CheckAtomicity(mk, recovery.AtomicityConfig{Seed: o.Seed, Warm: 60, Settle: 20})
		fired := 0
		for _, p := range outcomes {
			if p.Fired {
				fired++
			}
		}
		return outcomes, fmt.Sprintf("%d/%d probes fired, no torn survivor", fired, len(outcomes)), err
	})
}

// RunEscalation drives repeated preserved-state corruption through the
// crash-loop breaker and requires the full detect → escalate → de-escalate
// cycle.
func RunEscalation(o Options) (any, error) {
	o.fill()
	return perApp(o, "escalation", func(mk recovery.AppFactory) (any, string, error) {
		out, err := recovery.CheckEscalation(mk, recovery.EscalationConfig{Seed: o.Seed})
		return out, out.String(), err
	})
}

// RunMicroreboot measures the recovery-granularity windows: the simulated
// unavailability of the same mid-request fault recovered by request rewind,
// component microreboot, PHOENIX preserve_exec, builtin restart and vanilla
// restart. Each finer granularity must strictly beat the coarser ones.
func RunMicroreboot(o Options) (any, error) {
	o.fill()
	specs, err := only(registry.MicrorebootSpecs(o.Seed), func(s recovery.MicrorebootSpec) string { return s.Name }, o.App)
	if err != nil {
		return nil, err
	}
	res, err := recovery.CheckMicroreboot(specs, recovery.MicrorebootConfig{Seed: o.Seed})
	fmt.Fprint(o.Out, recovery.FmtMicroreboot(res))
	return res, err
}

// RunConcurrency serves reads off committed MVCC snapshots at 1, 4 and 16
// readers across a PHOENIX kill, and requires the reader speedup and a clean
// stale oracle.
func RunConcurrency(o Options) (any, error) {
	o.fill()
	specs, err := only(registry.ConcurrencySpecs(o.Seed), func(s recovery.ConcurrencySpec) string { return s.Name }, o.App)
	if err != nil {
		return nil, err
	}
	res, err := recovery.CheckConcurrency(specs, recovery.ConcurrencyConfig{Seed: o.Seed})
	fmt.Fprint(o.Out, recovery.FmtConcurrency(res))
	return res, err
}

// only keeps the items named app; an unknown name is an error listing every
// item's name. An empty app keeps every item.
func only[T any](items []T, name func(T) string, app string) ([]T, error) {
	if app == "" {
		return items, nil
	}
	var keep []T
	var have []string
	for _, it := range items {
		if name(it) == app {
			keep = append(keep, it)
		}
		have = append(have, name(it))
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

// perApp runs check against every registry application (or the o.App one)
// and prints one line per application to o.Out, which must be filled. A
// failing application is reported and counted rather than stopping the
// campaign; any failure fails the whole campaign.
func perApp(o Options, kind string, check func(recovery.AppFactory) (outcome any, summary string, err error)) (any, error) {
	names, err := only(registry.Names(), func(n string) string { return n }, o.App)
	if err != nil {
		return nil, err
	}
	factories := registry.Factories(o.Seed)
	var report []appOutcome
	failed := 0
	for _, name := range names {
		outcome, summary, err := check(factories[name])
		r := appOutcome{App: name, Outcome: outcome}
		if err != nil {
			failed++
			r.Error = err.Error()
			fmt.Fprintf(o.Out, "%-18s FAIL: %v\n", name, err)
		} else {
			fmt.Fprintf(o.Out, "%-18s ok: %s\n", name, summary)
		}
		report = append(report, r)
	}
	if failed > 0 {
		return report, fmt.Errorf("%s campaign: %d application(s) failed", kind, failed)
	}
	return report, nil
}
