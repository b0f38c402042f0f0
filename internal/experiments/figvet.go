package experiments

import (
	"fmt"

	"phoenix/internal/analysis"
	"phoenix/internal/analysis/pta"
	"phoenix/internal/explore"
	"phoenix/internal/ir"
)

// RunFigVet runs the preservation-safety verifier over every application
// model and then the static/dynamic differential campaign: the points-to
// verifier's verdicts against the interpreter's restart-audit ground truth,
// including the seeded dangling-store mutants. The per-model finding counts
// and the agreement table in EXPERIMENTS.md come from the full profile (500
// seeds per model); Quick sweeps 200. o.App restricts both halves to one
// model.
func RunFigVet(o Options) (any, error) {
	o.fill()
	apps, err := only(analysis.IRApps(), func(a analysis.IRApp) string { return a.Name }, o.App)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Out, "static verification (phxvet):\n")
	for _, app := range apps {
		rep, err := pta.Vet(ir.MustParse(app.Src), app.Entries)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.Out, "  %-10s funcs=%d objects=%d preserved=%d transient=%d findings=%v clean=%v\n",
			app.Name, rep.Funcs, rep.Objects, rep.Preserved, rep.Transient, rep.Counts(), rep.Clean())
	}
	opts := explore.VetOptions{Seeds: 500, Start: o.Seed, Model: o.App}
	if o.Quick {
		opts.Seeds = 200
	}
	sum, err := explore.CheckVet(opts)
	fmt.Fprintf(o.Out, "%s", explore.FmtVetSummary(sum))
	return sum, err
}
