package experiments

import (
	"fmt"
	"math/rand"

	"phoenix/internal/analysis"
	"phoenix/internal/ir"
)

// irReport is the IR-level campaign's outcome tally.
type irReport struct {
	Runs          int `json:"runs"`
	Completed     int `json:"completed"`
	Crashed       int `json:"crashed"`
	SafeVerdict   int `json:"verdict_safe"`
	UnsafeVerdict int `json:"verdict_unsafe"`
	Inconsistent  int `json:"inconsistent"`
	// SilentCarried counts corruption committed by an earlier completed
	// transaction: invisible to unsafe regions by design.
	SilentCarried int `json:"silent_carried"`
	// FalseNegatives counts crash-interrupted updates judged safe; any is a
	// contract violation.
	FalseNegatives int `json:"false_negatives"`
}

// RunIR is the distilled version of §4.4's experiment: it injects one
// instruction-level fault per run into the instrumented kvmodel, crashes it
// at a random point, and checks the state-stack safety verdict against the
// dictionary's ground-truth consistency. The full profile makes 500 runs;
// Quick makes 200.
func RunIR(o Options) (any, error) {
	o.fill()
	_, instrumented, err := instrumentedKVModel()
	if err != nil {
		return nil, err
	}
	sites := ir.EnumerateFaultSites(instrumented, nil)
	rng := rand.New(rand.NewSource(o.Seed))

	r := irReport{Runs: 500}
	if o.Quick {
		r.Runs = 200
	}
	for i := 0; i < r.Runs; i++ {
		site := sites[rng.Intn(len(sites))]
		fm, err := ir.Inject(instrumented, site)
		if err != nil {
			continue
		}
		in := ir.NewInterp(fm)
		in.MaxStep = 20000
		seedDict(in)
		// Random crash point somewhere in the faulted workload.
		in.CrashAtStep = 50 + rng.Intn(400)

		var runErr error
		preCrashConsistent := true
		for k := int64(1); k <= 12 && runErr == nil; k++ {
			before := dictConsistent(in)
			_, runErr = in.Call("handler", k%5, k*3)
			if runErr != nil {
				preCrashConsistent = before
			}
		}
		consistent := dictConsistent(in)
		switch e := runErr.(type) {
		case nil:
			r.Completed++
		case *ir.ErrCrash:
			r.Crashed++
			safe := ir.Safe(e.Stack)
			if safe {
				r.SafeVerdict++
			} else {
				r.UnsafeVerdict++
			}
			if !consistent {
				r.Inconsistent++
				switch {
				case safe && preCrashConsistent:
					// The crash itself interrupted an update yet the stack
					// said safe: a genuine unsafe-region miss.
					r.FalseNegatives++
				case safe:
					// The corruption was committed by an earlier completed
					// transaction: invisible to unsafe regions by design
					// (§3.5 — "if the failure is silent, PHOENIX shares the
					// same fate as the original recovery"); cross-check
					// validation is the mechanism that catches these.
					r.SilentCarried++
				}
			}
		default:
			// Fuel exhaustion et al.: an injected hang.
			r.Crashed++
			r.UnsafeVerdict++
		}
	}

	fmt.Fprintf(o.Out, "runs:                        %d\n", r.Runs)
	fmt.Fprintf(o.Out, "completed without crash:     %d\n", r.Completed)
	fmt.Fprintf(o.Out, "crashed:                     %d\n", r.Crashed)
	fmt.Fprintf(o.Out, "  verdict safe:              %d\n", r.SafeVerdict)
	fmt.Fprintf(o.Out, "  verdict unsafe:            %d\n", r.UnsafeVerdict)
	fmt.Fprintf(o.Out, "  state inconsistent:        %d\n", r.Inconsistent)
	fmt.Fprintf(o.Out, "  silent pre-crash corruption: %d (unsafe regions cannot see these; cross-check does)\n", r.SilentCarried)
	fmt.Fprintf(o.Out, "  FALSE NEGATIVES:           %d (crash-interrupted update judged safe)\n", r.FalseNegatives)
	if r.FalseNegatives > 0 {
		return r, fmt.Errorf("ir campaign: %d false negative(s)", r.FalseNegatives)
	}
	return r, nil
}

// instrumentedKVModel parses analysis.KVModel, analyzes it from its handler
// and returns it with the analyzer's unsafe-region instrumentation applied.
func instrumentedKVModel() (mod, instrumented *ir.Module, err error) {
	mod = ir.MustParse(analysis.KVModel)
	a := analysis.New(mod)
	if err := a.Run("handler", nil); err != nil {
		return nil, nil, fmt.Errorf("analysis: %w", err)
	}
	instrumented, _, err = a.Instrument()
	if err != nil {
		return nil, nil, fmt.Errorf("instrument: %w", err)
	}
	return mod, instrumented, nil
}

// seedDict initialises the interpreter's dictionary bucket.
func seedDict(in *ir.Interp) {
	bucket := in.Global("table") + 256
	in.Store(in.Global("table")+8, bucket)
	in.Store(in.Global("table")+16, 0)
	in.Store(bucket, 0)
}

// dictConsistent checks chain length against the stored count.
func dictConsistent(in *ir.Interp) bool {
	table := in.Global("table")
	bucket := in.Load(table + 8)
	count := in.Load(table + 16)
	var n int64
	for e := in.Load(bucket); e != 0; e = in.Load(e) {
		n++
		if n > count+16 {
			return false
		}
	}
	return n == count
}
