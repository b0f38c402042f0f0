package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// This file implements the explore campaign: sweep N seeds, run every
// generated schedule twice (byte-identical outcomes or the campaign fails),
// shrink every oracle violation to a minimal artifact, and verify the
// artifact replays. Oracle violations are *results* — the sweep reports them
// and ships their artifacts — while determinism failures, irreproducible
// artifacts, and infrastructure errors fail the campaign.

// Options parameterises CheckExplore.
type Options struct {
	// Seeds is how many consecutive seeds to sweep (default 200).
	Seeds int
	// Start is the first seed (default 1).
	Start int64
	// App restricts every schedule to one application ("" explores all).
	App string
}

// SeedResult summarises one seed of the sweep. Violating seeds carry their
// violations and the minimal shrunk artifact.
type SeedResult struct {
	Seed                int64       `json:"seed"`
	App                 string      `json:"app"`
	Mode                string      `json:"mode"`
	Events              int         `json:"events"`
	Steps               int         `json:"steps,omitempty"`
	Requests            int         `json:"requests"`
	Recoveries          int         `json:"recoveries"`
	FailedVerdicts      int         `json:"failed_verdicts,omitempty"`
	ServedBeforeVerdict int         `json:"served_before_verdict,omitempty"`
	Violations          []Violation `json:"violations,omitempty"`
	Shrunk              *Artifact   `json:"shrunk,omitempty"`
}

// Summary is the campaign's deterministic JSON report. FailedVerdicts and
// ServedBeforeVerdict total the seeds' (see Outcome).
type Summary struct {
	Start               int64        `json:"start"`
	Seeds               int          `json:"seeds"`
	App                 string       `json:"app,omitempty"`
	Violating           int          `json:"violating"`
	FailedVerdicts      int          `json:"failed_verdicts"`
	ServedBeforeVerdict int          `json:"served_before_verdict"`
	Results             []SeedResult `json:"results"`
}

// CheckExplore sweeps the seed range and returns the summary plus the first
// campaign failure (never an oracle violation). Every seed is run twice and
// its outcomes must encode byte-identically; every violation is shrunk and
// its artifact verified by replay before it enters the summary.
func CheckExplore(o Options) (Summary, error) {
	if o.Seeds <= 0 {
		o.Seeds = 200
	}
	if o.Start == 0 {
		o.Start = 1
	}
	sum := Summary{Start: o.Start, Seeds: o.Seeds, App: o.App, Results: []SeedResult{}}
	for i := 0; i < o.Seeds; i++ {
		seed := o.Start + int64(i)
		sch := Generate(seed, o.App)
		out, err := Run(sch)
		if err != nil {
			return sum, fmt.Errorf("seed %d: %w", seed, err)
		}
		rerun, err := Run(sch)
		if err != nil {
			return sum, fmt.Errorf("seed %d rerun: %w", seed, err)
		}
		j1, err := json.Marshal(out)
		if err != nil {
			return sum, err
		}
		j2, err := json.Marshal(rerun)
		if err != nil {
			return sum, err
		}
		if !bytes.Equal(j1, j2) {
			return sum, fmt.Errorf("seed %d: same-seed reruns diverged:\n%s\n%s", seed, j1, j2)
		}

		res := SeedResult{
			Seed:                seed,
			App:                 sch.App,
			Mode:                sch.Mode,
			Events:              len(sch.Events),
			Steps:               sch.Steps,
			Requests:            out.Requests,
			Recoveries:          out.Recoveries,
			FailedVerdicts:      out.FailedVerdicts,
			ServedBeforeVerdict: out.ServedBeforeVerdict,
			Violations:          out.Violations,
		}
		sum.FailedVerdicts += out.FailedVerdicts
		sum.ServedBeforeVerdict += out.ServedBeforeVerdict
		if len(out.Violations) > 0 {
			art, err := Shrink(sch, out.Violations)
			if err != nil {
				return sum, fmt.Errorf("seed %d: shrink: %w", seed, err)
			}
			if err := Verify(art); err != nil {
				return sum, fmt.Errorf("seed %d: shrunk artifact does not replay: %w", seed, err)
			}
			res.Shrunk = &art
			sum.Violating++
		}
		sum.Results = append(sum.Results, res)
	}
	return sum, nil
}

// FmtSummary renders the campaign result for terminal output.
func FmtSummary(s Summary) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "explore: %d seeds from %d", s.Seeds, s.Start)
	if s.App != "" {
		fmt.Fprintf(&b, " (app %s)", s.App)
	}
	fmt.Fprintf(&b, ": %d violating\n", s.Violating)
	byOracle := map[string]int{}
	modes := map[string]int{}
	for _, r := range s.Results {
		modes[r.Mode]++
		seen := map[string]bool{}
		for _, v := range r.Violations {
			if !seen[v.Oracle] {
				byOracle[v.Oracle]++
				seen[v.Oracle] = true
			}
		}
	}
	fmt.Fprintf(&b, "  modes: single=%d shard=%d\n", modes["single"], modes["shard"])
	fmt.Fprintf(&b, "  failing integrity verdicts: %d, requests served before them: %d\n",
		s.FailedVerdicts, s.ServedBeforeVerdict)
	for _, name := range []string{"accounting", "ladder", "durability", "component", "shard"} {
		if n := byOracle[name]; n > 0 {
			fmt.Fprintf(&b, "  oracle %-12s violated by %d seed(s)\n", name, n)
		}
	}
	for _, r := range s.Results {
		if r.Shrunk != nil {
			fmt.Fprintf(&b, "  seed %d (%s/%s): %s — minimal: %d events, %d steps\n",
				r.Seed, r.App, r.Mode, r.Violations[0].Msg, len(r.Shrunk.Schedule.Events), r.Shrunk.Schedule.Steps)
		}
	}
	return b.String()
}
