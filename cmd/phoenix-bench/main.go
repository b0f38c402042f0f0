// Command phoenix-bench regenerates the paper's evaluation tables and
// figures, runs the fault-injection campaigns, the design-choice ablations,
// and the preserve-path trajectory (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for the paper-vs-measured comparison). A campaign's
// contract violation exits non-zero. -json prints, instead of the text, one
// line of deterministic JSON per selected entry that has a structured
// report: the campaigns' -quick reports equal their goldens under
// internal/experiments/testdata/golden.
//
// Usage:
//
//	phoenix-bench                  # run everything at full scale
//	phoenix-bench -run fig10,tab7 # selected experiments
//	phoenix-bench -quick          # reduced scale (CI-sized)
//	phoenix-bench -list           # list experiment IDs
//	phoenix-bench -run figcluster -app kvstore -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"phoenix/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick   = flag.Bool("quick", false, "reduced workload sizes")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		app     = flag.String("app", "", "restrict the per-application entries to one application (default: all)")
		jsonOut = flag.Bool("json", false, "print each selected entry's report as one line of JSON instead of its text")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	selected, err := selectRun(experiments.All(), *run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phoenix-bench: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, App: *app, Out: os.Stdout}
	if *jsonOut {
		opts.Out = io.Discard
	}
	failed := false
	for _, e := range selected {
		if !*jsonOut {
			fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		}
		start := time.Now()
		report, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", e.ID, err)
			failed = true
		}
		if !*jsonOut {
			fmt.Printf("--- %s done in %v (wall clock) ---\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		} else if report != nil {
			if err := json.NewEncoder(os.Stdout).Encode(report); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// selectRun returns the experiments named by the comma-separated -run list,
// in registry order, or all of them when the list is empty. Any name that is
// not a registry ID is an error naming it and listing the valid IDs.
func selectRun(all []experiments.Experiment, run string) ([]experiments.Experiment, error) {
	if run == "" {
		return all, nil
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.ID] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		return nil, fmt.Errorf("unknown experiment %s; valid IDs: %s",
			strings.Join(unknown, ", "), strings.Join(ids, ", "))
	}
	var out []experiments.Experiment
	for _, e := range all {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
