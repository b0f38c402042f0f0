package explore

import (
	"strings"
	"testing"

	"phoenix/internal/apps/registry"
	"phoenix/internal/faultinject"
	"phoenix/internal/recovery"
)

// TestComponentGraphMatchesApps pins the generator's static component table
// to the applications' own ComponentApp declarations: a component renamed or
// added in an app without updating the table would silently stop being
// explored (or generate kills the driver cannot attribute).
func TestComponentGraphMatchesApps(t *testing.T) {
	for _, name := range registry.Names() {
		mk := registry.Factories(1)[name]
		app, _ := mk(faultinject.New())
		ca, ok := app.(recovery.ComponentApp)
		declared, tabled := []string(nil), componentGraph[name]
		if ok {
			for _, c := range ca.Components() {
				declared = append(declared, c.Name)
			}
		}
		if strings.Join(declared, ",") != strings.Join(tabled, ",") {
			t.Errorf("%s: componentGraph table %v != app declaration %v", name, tabled, declared)
		}
	}
}

// TestMidRequestFaultTableArms checks every table entry names an app that
// accepts ArmBug (firing is covered by the campaign runs).
func TestMidRequestFaultTableArms(t *testing.T) {
	for name, bug := range midRequestFaults {
		mk, ok := registry.Factories(1)[name]
		if !ok {
			t.Errorf("midRequestFaults names unknown app %q", name)
			continue
		}
		app, _ := mk(faultinject.New())
		ba, ok := app.(interface{ ArmBug(string) })
		if !ok {
			t.Errorf("%s: no ArmBug method", name)
			continue
		}
		ba.ArmBug(bug)
	}
}

// TestComponentKillSchedulesRecover drives a hand-written schedule with a
// component kill and a mid-request fault at the rewind floor for each
// component-declaring app, and requires a clean outcome: the sub-process
// rungs (or their fall-through to process recovery) must leave no dangling
// component state and no oracle violation.
func TestComponentKillSchedulesRecover(t *testing.T) {
	for app, comps := range componentGraph {
		app, comps := app, comps
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			sch := Schedule{
				Seed:    42,
				App:     app,
				Mode:    "single",
				Steps:   40,
				Domains: true,
			}
			for i, c := range comps {
				sch.Events = append(sch.Events, Event{Kind: KindComponentKill, At: 8 + 6*i, Site: c})
			}
			sch.Events = append(sch.Events,
				Event{Kind: KindDomainFault, At: 25, Site: midRequestFaults[app]},
				Event{Kind: KindKill, At: 32})
			sortEvents(sch.Events)
			out, err := Run(sch)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Violations) != 0 {
				t.Fatalf("violations: %+v", out.Violations)
			}
			if out.Recoveries < len(comps)+2 {
				t.Fatalf("expected at least %d recoveries, got %d", len(comps)+2, out.Recoveries)
			}
		})
	}
}

// TestDomainsOffComponentKill runs the same component kills without rewind
// domains: the crashes must be recoverable purely by microreboot-or-restart,
// still with zero violations.
func TestDomainsOffComponentKill(t *testing.T) {
	for app, comps := range componentGraph {
		sch := Schedule{Seed: 7, App: app, Mode: "single", Steps: 30}
		for i, c := range comps {
			sch.Events = append(sch.Events, Event{Kind: KindComponentKill, At: 6 + 5*i, Site: c})
		}
		sortEvents(sch.Events)
		out, err := Run(sch)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if len(out.Violations) != 0 {
			t.Fatalf("%s: violations: %+v", app, out.Violations)
		}
	}
}
