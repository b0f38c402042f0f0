package explore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"phoenix/internal/analysis"
	"phoenix/internal/analysis/pta"
	"phoenix/internal/ir"
)

// This file implements the vet differential campaign: the phxvet static
// verifier and the IR interpreter's restart audit are run against the same
// application models and must agree. Unlike the explore campaign — where
// oracle violations are results — any static/dynamic disagreement here is a
// campaign FAILURE:
//
//   - a statically-clean model must show zero dynamic dangling observations,
//     dangling-access faults, and preserved-checksum mismatches across the
//     whole seed sweep;
//   - every seeded dangling-store mutant must be flagged statically (kind
//     dangling-reference, at exactly the planted store's position) AND
//     manifest dynamically in a fixed small sweep;
//   - every seeded cross-domain mutant must be flagged statically (kind
//     cross-domain-store, at exactly the planted position). These mutants
//     target scalar counters, so no dynamic manifestation is required — the
//     sweep only asserts the mutant module still executes without error;
//   - every seeded rewind-escape mutant must be flagged statically (kind
//     rewind-escape, at exactly the planted alloc's position) AND manifest
//     dynamically: the drivers bracket a deterministic subset of calls in
//     rewind domains, and DomainDiscard's escape audit must catch the
//     published pointer. Clean models must show zero escapes over the whole
//     sweep.

// VetOptions parameterises CheckVet.
type VetOptions struct {
	// Seeds is how many consecutive seeds to sweep per model (default 200).
	Seeds int
	// Start is the first seed (default 1).
	Start int64
	// Model restricts the campaign to one application model ("" = all).
	Model string
}

// mutantSeeds is the fixed sweep width of the mutant phase: enough runs for
// every registered mutant to manifest, small enough to keep the phase cheap.
const mutantSeeds = 8

// VetMutantResult records the two halves of one planted bug's contract.
type VetMutantResult struct {
	Fn       string `json:"fn"`
	NthStore int    `json:"nth_store"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	// Flagged: the verifier reported kind dangling-reference at exactly
	// (Fn, Line, Col) on the mutant module.
	Flagged bool `json:"flagged"`
	// Dynamic: total dynamic violations the mutant produced over the sweep.
	Dynamic int `json:"dynamic"`
}

// VetCrossMutantResult records one planted cross-domain write's contract:
// the verifier must flag it (kind cross-domain-store) at exactly the anchor
// position returned by ir.InsertCrossDomainStore.
type VetCrossMutantResult struct {
	Fn      string `json:"fn"`
	Global  string `json:"global"`
	Off     int64  `json:"off"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Flagged bool   `json:"flagged"`
	// Dynamic: violations observed over the sweep. Informational — counter
	// scribbles show up as checksum perturbations only when a restart lands
	// between the scribble and the next legitimate overwrite.
	Dynamic int `json:"dynamic"`
}

// VetRewindMutantResult records one planted rewind-escape's contract: the
// verifier must flag it (kind rewind-escape) at exactly the anchor position
// returned by ir.InsertRewindEscape, and the domain-bracketed sweep must
// observe at least one dynamic escape.
type VetRewindMutantResult struct {
	Fn       string `json:"fn"`
	NthAlloc int    `json:"nth_alloc"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Flagged  bool   `json:"flagged"`
	// Dynamic: DomainDiscard escape-audit records over the sweep.
	Dynamic int `json:"dynamic"`
}

// VetModelResult is one model's differential outcome.
type VetModelResult struct {
	Model    string         `json:"model"`
	Entries  []string       `json:"entries"`
	Findings map[string]int `json:"findings,omitempty"`
	Clean    bool           `json:"clean"`
	Seeds    int            `json:"seeds"`
	Calls    int            `json:"calls"`
	Restarts int            `json:"restarts"`
	// Dangling counts restart-audit observations plus post-restart access
	// faults on the unmutated model (agreement requires 0 when Clean).
	Dangling int `json:"dangling"`
	// ChecksumMismatches counts preserved-checksum changes across restarts.
	ChecksumMismatches int `json:"checksum_mismatches"`
	// RewindEscapes counts DomainDiscard escape-audit records on the
	// unmutated model (agreement requires 0 when Clean).
	RewindEscapes int                     `json:"rewind_escapes"`
	Mutants       []VetMutantResult       `json:"mutants"`
	CrossMutants  []VetCrossMutantResult  `json:"cross_mutants"`
	RewindMutants []VetRewindMutantResult `json:"rewind_mutants"`
	Agreement     bool                    `json:"agreement"`
}

// VetSummary is the campaign's deterministic JSON report.
type VetSummary struct {
	Start     int64            `json:"start"`
	Seeds     int              `json:"seeds"`
	Model     string           `json:"model,omitempty"`
	Models    []VetModelResult `json:"models"`
	Agreement bool             `json:"agreement"`
}

// vetDrive runs one randomized serving schedule against a fresh interpreter:
// setup, then ops serving calls with 1–3 restarts at random op indices and a
// final restart, counting dynamic violations. Roughly a quarter of the calls
// are bracketed in a rewind domain, half of those discarded — exercising the
// sub-process rewind rung and its escape audit alongside whole-process
// restarts. Everything derives from the seeded rng, so the same (model, seed)
// pair replays identically.
func vetDrive(app analysis.IRApp, m *ir.Module, seed int64) (calls, restarts, dangling, checksumBad, escapes int, err error) {
	h := fnv.New64a()
	h.Write([]byte(app.Name))
	rng := rand.New(rand.NewSource(mix(seed ^ int64(h.Sum64()))))

	in := ir.NewInterp(m)
	if _, err = in.Call(app.Setup); err != nil {
		return 0, 0, 0, 0, 0, fmt.Errorf("setup: %w", err)
	}
	ops := 20 + rng.Intn(40)
	restartAt := map[int]bool{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		restartAt[rng.Intn(ops)] = true
	}
	restart := func() {
		before := in.PreservedChecksum()
		dangling += len(in.PreserveRestart())
		if in.PreservedChecksum() != before {
			checksumBad++
		}
		restarts++
	}
	for i := 0; i < ops; i++ {
		c := app.Calls[rng.Intn(len(app.Calls))]
		args := make([]int64, c.NArgs)
		for j := range args {
			args[j] = rng.Int63n(c.ArgMax)
		}
		// Draw the domain decisions unconditionally so the rng stream — and
		// therefore the schedule — is identical across clean and mutant runs.
		inDomain := rng.Intn(4) == 0
		discard := rng.Intn(2) == 0
		if inDomain {
			if derr := in.DomainBegin(); derr != nil {
				return calls, restarts, dangling, checksumBad, escapes, derr
			}
		}
		if _, cerr := in.Call(c.Fn, args...); cerr != nil {
			var de *ir.ErrDangling
			if !errors.As(cerr, &de) {
				return calls, restarts, dangling, checksumBad, escapes,
					fmt.Errorf("%s%v: %w", c.Fn, args, cerr)
			}
			dangling++ // access through a dangling pointer
		}
		if inDomain {
			if discard {
				esc, derr := in.DomainDiscard()
				if derr != nil {
					return calls, restarts, dangling, checksumBad, escapes, derr
				}
				escapes += len(esc)
			} else if derr := in.DomainCommit(); derr != nil {
				return calls, restarts, dangling, checksumBad, escapes, derr
			}
		}
		calls++
		if restartAt[i] {
			restart()
		}
	}
	restart()
	return calls, restarts, dangling, checksumBad, escapes, nil
}

// CheckVet runs the differential campaign and returns the summary plus the
// first campaign failure. Infrastructure errors and static/dynamic
// disagreements both fail the campaign; the summary is valid either way.
func CheckVet(o VetOptions) (VetSummary, error) {
	if o.Seeds <= 0 {
		o.Seeds = 200
	}
	if o.Start == 0 {
		o.Start = 1
	}
	sum := VetSummary{Start: o.Start, Seeds: o.Seeds, Model: o.Model, Agreement: true, Models: []VetModelResult{}}
	var firstErr error
	fail := func(err error) {
		sum.Agreement = false
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, app := range analysis.IRApps() {
		if o.Model != "" && app.Name != o.Model {
			continue
		}
		m, err := ir.Parse(app.Src)
		if err != nil {
			return sum, fmt.Errorf("model %s: %w", app.Name, err)
		}
		if _, err := m.Validate(); err != nil {
			return sum, fmt.Errorf("model %s: %w", app.Name, err)
		}
		rep, err := pta.Vet(m, app.Entries)
		if err != nil {
			return sum, fmt.Errorf("model %s: vet: %w", app.Name, err)
		}
		res := VetModelResult{
			Model:         app.Name,
			Entries:       rep.Entries,
			Findings:      rep.Counts(),
			Clean:         rep.Clean(),
			Seeds:         o.Seeds,
			Mutants:       []VetMutantResult{},
			CrossMutants:  []VetCrossMutantResult{},
			RewindMutants: []VetRewindMutantResult{},
		}
		for i := 0; i < o.Seeds; i++ {
			calls, restarts, dangling, checksumBad, escapes, err := vetDrive(app, m, o.Start+int64(i))
			if err != nil {
				return sum, fmt.Errorf("model %s seed %d: %w", app.Name, o.Start+int64(i), err)
			}
			res.Calls += calls
			res.Restarts += restarts
			res.Dangling += dangling
			res.ChecksumMismatches += checksumBad
			res.RewindEscapes += escapes
		}
		res.Agreement = true
		if res.Clean && (res.Dangling > 0 || res.ChecksumMismatches > 0 || res.RewindEscapes > 0) {
			res.Agreement = false
			fail(fmt.Errorf("model %s: statically clean but %d dangling + %d checksum + %d rewind-escape violations dynamically",
				app.Name, res.Dangling, res.ChecksumMismatches, res.RewindEscapes))
		}
		if !res.Clean {
			res.Agreement = false
			fail(fmt.Errorf("model %s: shipped model is not statically clean", app.Name))
		}

		for _, mu := range app.Mutants {
			ref, err := ir.FindStore(m, mu.Fn, mu.NthStore)
			if err != nil {
				return sum, fmt.Errorf("model %s mutant: %w", app.Name, err)
			}
			mut, pos, err := ir.InsertDanglingStore(m, mu.Fn, ref)
			if err != nil {
				return sum, fmt.Errorf("model %s mutant: %w", app.Name, err)
			}
			mres := VetMutantResult{Fn: mu.Fn, NthStore: mu.NthStore, Line: pos.Line, Col: pos.Col}
			mrep, err := pta.Vet(mut, app.Entries)
			if err != nil {
				return sum, fmt.Errorf("model %s mutant vet: %w", app.Name, err)
			}
			for _, f := range mrep.Findings {
				if f.Kind == pta.KindDangling && f.Fn == mu.Fn && f.Line == pos.Line && f.Col == pos.Col {
					mres.Flagged = true
				}
			}
			for i := 0; i < mutantSeeds; i++ {
				_, _, dangling, checksumBad, _, err := vetDrive(app, mut, o.Start+int64(i))
				if err != nil {
					return sum, fmt.Errorf("model %s mutant seed %d: %w", app.Name, o.Start+int64(i), err)
				}
				mres.Dynamic += dangling + checksumBad
			}
			if !mres.Flagged {
				res.Agreement = false
				fail(fmt.Errorf("model %s: mutant %s#%d not flagged statically at %s",
					app.Name, mu.Fn, mu.NthStore, pos))
			}
			if mres.Dynamic == 0 {
				res.Agreement = false
				fail(fmt.Errorf("model %s: mutant %s#%d flagged statically but never manifested dynamically",
					app.Name, mu.Fn, mu.NthStore))
			}
			res.Mutants = append(res.Mutants, mres)
		}

		for _, cm := range app.CrossMutants {
			mut, pos, err := ir.InsertCrossDomainStore(m, cm.Fn, cm.Global, cm.Off)
			if err != nil {
				return sum, fmt.Errorf("model %s cross mutant: %w", app.Name, err)
			}
			cres := VetCrossMutantResult{Fn: cm.Fn, Global: cm.Global, Off: cm.Off, Line: pos.Line, Col: pos.Col}
			mrep, err := pta.Vet(mut, app.Entries)
			if err != nil {
				return sum, fmt.Errorf("model %s cross mutant vet: %w", app.Name, err)
			}
			for _, f := range mrep.Findings {
				if f.Kind == pta.KindCrossDomain && f.Fn == cm.Fn && f.Line == pos.Line && f.Col == pos.Col {
					cres.Flagged = true
				}
			}
			for i := 0; i < mutantSeeds; i++ {
				_, _, dangling, checksumBad, _, err := vetDrive(app, mut, o.Start+int64(i))
				if err != nil {
					return sum, fmt.Errorf("model %s cross mutant seed %d: %w", app.Name, o.Start+int64(i), err)
				}
				cres.Dynamic += dangling + checksumBad
			}
			if !cres.Flagged {
				res.Agreement = false
				fail(fmt.Errorf("model %s: cross mutant %s->%s+%d not flagged statically at %s",
					app.Name, cm.Fn, cm.Global, cm.Off, pos))
			}
			res.CrossMutants = append(res.CrossMutants, cres)
		}

		for _, rm := range app.RewindMutants {
			ref, err := ir.FindAlloc(m, rm.Fn, rm.NthAlloc)
			if err != nil {
				return sum, fmt.Errorf("model %s rewind mutant: %w", app.Name, err)
			}
			mut, pos, err := ir.InsertRewindEscape(m, rm.Fn, ref)
			if err != nil {
				return sum, fmt.Errorf("model %s rewind mutant: %w", app.Name, err)
			}
			rres := VetRewindMutantResult{Fn: rm.Fn, NthAlloc: rm.NthAlloc, Line: pos.Line, Col: pos.Col}
			mrep, err := pta.Vet(mut, app.Entries)
			if err != nil {
				return sum, fmt.Errorf("model %s rewind mutant vet: %w", app.Name, err)
			}
			for _, f := range mrep.Findings {
				if f.Kind == pta.KindRewindEscape && f.Fn == rm.Fn && f.Line == pos.Line && f.Col == pos.Col {
					rres.Flagged = true
				}
			}
			for i := 0; i < mutantSeeds; i++ {
				_, _, _, _, escapes, err := vetDrive(app, mut, o.Start+int64(i))
				if err != nil {
					return sum, fmt.Errorf("model %s rewind mutant seed %d: %w", app.Name, o.Start+int64(i), err)
				}
				rres.Dynamic += escapes
			}
			if !rres.Flagged {
				res.Agreement = false
				fail(fmt.Errorf("model %s: rewind mutant %s#%d not flagged statically at %s",
					app.Name, rm.Fn, rm.NthAlloc, pos))
			}
			if rres.Dynamic == 0 {
				res.Agreement = false
				fail(fmt.Errorf("model %s: rewind mutant %s#%d flagged statically but never escaped dynamically",
					app.Name, rm.Fn, rm.NthAlloc))
			}
			res.RewindMutants = append(res.RewindMutants, rres)
		}
		sum.Models = append(sum.Models, res)
	}
	if o.Model != "" && len(sum.Models) == 0 {
		return sum, fmt.Errorf("vet: unknown model %q", o.Model)
	}
	return sum, firstErr
}

// FmtVetSummary renders the campaign result for terminal output.
func FmtVetSummary(s VetSummary) string {
	var b []byte
	b = append(b, fmt.Sprintf("vet: %d seeds from %d", s.Seeds, s.Start)...)
	if s.Model != "" {
		b = append(b, fmt.Sprintf(" (model %s)", s.Model)...)
	}
	if s.Agreement {
		b = append(b, ": static/dynamic AGREE\n"...)
	} else {
		b = append(b, ": DISAGREEMENT\n"...)
	}
	for _, m := range s.Models {
		b = append(b, fmt.Sprintf("  %-10s clean=%-5v findings=%v calls=%d restarts=%d dangling=%d checksum_bad=%d escapes=%d\n",
			m.Model, m.Clean, m.Findings, m.Calls, m.Restarts, m.Dangling, m.ChecksumMismatches, m.RewindEscapes)...)
		for _, mu := range m.Mutants {
			b = append(b, fmt.Sprintf("    mutant %s#%d @%d:%d flagged=%v dynamic=%d\n",
				mu.Fn, mu.NthStore, mu.Line, mu.Col, mu.Flagged, mu.Dynamic)...)
		}
		for _, cm := range m.CrossMutants {
			b = append(b, fmt.Sprintf("    cross-mutant %s->%s+%d @%d:%d flagged=%v dynamic=%d\n",
				cm.Fn, cm.Global, cm.Off, cm.Line, cm.Col, cm.Flagged, cm.Dynamic)...)
		}
		for _, rm := range m.RewindMutants {
			b = append(b, fmt.Sprintf("    rewind-mutant %s#%d @%d:%d flagged=%v dynamic=%d\n",
				rm.Fn, rm.NthAlloc, rm.Line, rm.Col, rm.Flagged, rm.Dynamic)...)
		}
	}
	return string(b)
}
