package experiments

import (
	"fmt"

	"phoenix/internal/perftraj"
)

// RunPreserve prints the preserve-path trajectory (internal/perftraj) over
// one perftraj.Pages-page set: preserve_exec commits at several dirty
// fractions, restart-to-first-request, the rewind-domain primitives,
// live-migration rounds and cutovers, MVCC serve batches, and the cost-model
// terms the delta path leans on. The scenarios are already small and fixed,
// so Quick and Seed change nothing.
func RunPreserve(o Options) error {
	o.fill()
	metrics, err := perftraj.Collect()
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "preserve trajectory (%d pages, simulated clock):\n", perftraj.Pages)
	for _, m := range metrics {
		fmt.Fprintf(o.Out, "  %-28s %12d %s\n", m.Name, m.Value, m.Unit)
	}
	return nil
}
