package experiments

import (
	"fmt"

	"phoenix/internal/bugs"
	"phoenix/internal/faultinject"
)

// RunTab1 prints the §2.3 failure-study taxonomy (Table 1). This is a
// dataset reproduction: the study is human bug triage, encoded in
// internal/bugs.
func RunTab1(o Options) error {
	o.fill()
	w := o.Out
	fmt.Fprintf(w, "%-14s %-5s %6s %6s %5s %6s %8s %7s\n",
		"System", "Lang", "Cases", "Temp", "BadG", "GoodG", "Partial", "Modify")
	for _, r := range bugs.Study() {
		fmt.Fprintf(w, "%-14s %-5s %6d %6d %5d %6d %8d %7d\n",
			r.System, r.Language, r.Cases, r.TempOnly, r.BadGlob, r.GoodGlob, r.Partial, r.Modify)
	}
	t := bugs.StudyTotals()
	fmt.Fprintf(w, "%-14s %-5s %6d %6d %5d %6d %8d %7d\n",
		"Total", "", t.Cases, t.TempOnly, t.BadGlob, t.GoodGlob, t.Partial, t.Modify)
	fmt.Fprintf(w, "Finding 1: %.1f%% corrupt only temporary state or none (paper: 87.5%%)\n",
		100*float64(t.TempOnly+t.GoodGlob)/float64(t.Cases))
	return nil
}

// RunTab3 prints the evaluated systems and their preserved state (Table 3).
func RunTab3(o Options) error {
	o.fill()
	rows := [][3]string{
		{"kvstore (Redis)", "In-mem KV database", "In-mem KV hash table"},
		{"lsmdb (LevelDB)", "KV database", "Skiplist memory tables"},
		{"webcache-varnish (Varnish)", "Web cache server", "Web page cache objects"},
		{"webcache-squid (Squid)", "Web cache server", "Web page cache objects + phxsec pools"},
		{"boost (XGBoost)", "Gradient boosting", "Gradients and model"},
		{"particle (VPIC)", "Particle simulation", "Particles and physical fields"},
	}
	fmt.Fprintf(o.Out, "%-28s %-22s %s\n", "System", "Description", "Preserved state")
	for _, r := range rows {
		fmt.Fprintf(o.Out, "%-28s %-22s %s\n", r[0], r[1], r[2])
	}
	return nil
}

// RunTab4 prints the porting-effort accounting (Table 4). In this
// reproduction the integration lives inside each app package; the rows
// report where each concern is implemented rather than C LoC counts.
func RunTab4(o Options) error {
	o.fill()
	type row struct {
		system, base, mark, cc, clean string
	}
	rows := []row{
		{"kvstore", "Main/PlanRestart/writeInfo", "UnsafeBegin(kv) in set/del (analyzer-derived)", "CrossCheck + RedoLog", "dict.Mark closure to FinishRecovery"},
		{"lsmdb", "Main/PlanRestart/writeInfo", "UnsafeBegin(ldb) spanning WAL append + memtable insert", "CrossCheck (WAL replay)", "skiplist.Mark"},
		{"webcache-varnish", "Main + master-worker handling", "UnsafeBegin(cache) in insert/evict", "N/A", "markAll + refcount reset"},
		{"webcache-squid", "Main + phxsec section statics", "UnsafeBegin(cache) in insert/evict", "N/A", "markAll"},
		{"boost", "Main/PlanRestart", "phx_stage hooks (predict/gradient/update)", "N/A", "skipped (>90% preserved)"},
		{"particle", "Main/PlanRestart", "phx_stage hooks (push/deposit/solve)", "N/A", "skipped (>90% preserved)"},
	}
	fmt.Fprintf(o.Out, "%-18s | %-30s | %-45s | %-22s | %s\n", "System", "Base", "Marks", "Cross-check", "Cleanup")
	for _, r := range rows {
		fmt.Fprintf(o.Out, "%-18s | %-30s | %-45s | %-22s | %s\n", r.system, r.base, r.mark, r.cc, r.clean)
	}
	return nil
}

// RunTab5 prints the reproduced bug catalogue (Table 5).
func RunTab5(o Options) error {
	o.fill()
	fmt.Fprintf(o.Out, "%-5s %-18s %-7s %-40s %s\n", "No.", "System", "Case#", "Description", "Expected")
	for _, b := range bugs.All() {
		exp := "phoenix-recover"
		if b.Expected == bugs.OutcomeFallback {
			exp = "unsafe-fallback"
		}
		fmt.Fprintf(o.Out, "%-5s %-18s %-7s %-40s %s\n", b.ID, b.System, b.Case, b.Desc, exp)
	}
	return nil
}

// RunTab6 prints the injected fault-type catalogue (Table 6).
func RunTab6(o Options) error {
	o.fill()
	methods := map[faultinject.FaultType]string{
		faultinject.CompInversion: "example: > becomes <=",
		faultinject.MissingStore:  "removing Store instruction",
		faultinject.WrongOperand:  "example: set operand to 0 or 1",
		faultinject.MissingBranch: "remove branch instruction",
		faultinject.UninitVar:     "remove first assignment after Alloca",
		faultinject.WrongResult:   "Store instruction writes 0 or 1",
		faultinject.MissingCall:   "remove function call",
	}
	fmt.Fprintf(o.Out, "%-24s %s\n", "Fault", "Method")
	for t := faultinject.FaultType(0); t < faultinject.NumFaultTypes; t++ {
		fmt.Fprintf(o.Out, "%-24s %s\n", t, methods[t])
	}
	return nil
}
