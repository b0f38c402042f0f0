// Command phoenix-bench regenerates the paper's evaluation tables and
// figures, the design-choice ablations, and the preserve-path trajectory
// (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
// paper-vs-measured comparison).
//
// Usage:
//
//	phoenix-bench                  # run everything at full scale
//	phoenix-bench -run fig10,tab7 # selected experiments
//	phoenix-bench -quick          # reduced scale (CI-sized)
//	phoenix-bench -list           # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"phoenix/internal/experiments"
)

func main() {
	var (
		run   = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick = flag.Bool("quick", false, "reduced workload sizes")
		seed  = flag.Int64("seed", 1, "deterministic seed")
		list  = flag.Bool("list", false, "list experiments and exit")
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
	failed := false
	for _, e := range selected {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		err := e.Run(experiments.Options{Quick: *quick, Seed: *seed, Out: os.Stdout})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", e.ID, err)
			failed = true
		}
		fmt.Printf("--- %s done in %v (wall clock) ---\n\n", e.ID, time.Since(start).Round(time.Millisecond))
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
