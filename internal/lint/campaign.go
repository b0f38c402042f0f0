package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
)

// AnalyzerResult is one analyzer's slice of the campaign report.
type AnalyzerResult struct {
	Name     string `json:"name"`
	Doc      string `json:"doc"`
	Findings int    `json:"findings"`
}

// Report is the deterministic product of a full lint campaign: same tree,
// same baseline → byte-identical JSON.
type Report struct {
	Module     string           `json:"module"`
	Packages   int              `json:"packages"`
	Files      int              `json:"files"`
	Analyzers  []AnalyzerResult `json:"analyzers"`
	Baselined  int              `json:"baselined"`
	Findings   []Diagnostic     `json:"findings"`
	Clean      bool             `json:"clean"`
	Suppressed []Diagnostic     `json:"suppressed,omitempty"`
}

// Campaign loads the module rooted at root, runs every registered analyzer,
// and applies the checked-in baseline. Findings surviving the baseline mean
// the tree violates a contract (Clean=false).
func Campaign(root string) (*Report, error) {
	repo, err := LoadRepo(root)
	if err != nil {
		return nil, err
	}
	base, err := LoadBaseline(filepath.Join(root, filepath.FromSlash(BaselinePath)))
	if err != nil {
		return nil, err
	}

	rep := &Report{Module: repo.Module, Packages: len(repo.Pkgs), Files: repo.NumFiles()}
	var all []Diagnostic
	for _, a := range Analyzers() {
		diags := a.Run(repo)
		rep.Analyzers = append(rep.Analyzers, AnalyzerResult{Name: a.Name, Doc: a.Doc, Findings: len(diags)})
		all = append(all, diags...)
	}
	sortDiagnostics(all)

	kept, suppressed := ApplyBaseline(all, base)
	rep.Findings = kept
	rep.Suppressed = suppressed
	rep.Baselined = len(suppressed)
	rep.Clean = len(kept) == 0
	return rep, nil
}

// JSON renders the report as stable indented JSON (slices pre-sorted, no
// maps), terminated by a newline.
func (rep *Report) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FmtReport renders the human-readable campaign summary.
func FmtReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "phoenixlint: %s — %d packages, %d files\n", rep.Module, rep.Packages, rep.Files)
	for _, a := range rep.Analyzers {
		fmt.Fprintf(&b, "  %-16s %3d finding(s)  %s\n", a.Name, a.Findings, a.Doc)
	}
	fmt.Fprintf(&b, "  baseline suppressed %d accepted exception(s)\n", rep.Baselined)
	if rep.Clean {
		b.WriteString("  CLEAN: no findings beyond baseline\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %d finding(s) beyond baseline:\n", len(rep.Findings))
	for _, d := range rep.Findings {
		fmt.Fprintf(&b, "    %s\n", d.String())
	}
	return b.String()
}
