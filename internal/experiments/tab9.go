package experiments

import (
	"fmt"
	"time"

	"phoenix/internal/recovery"
)

// RunTab9 reproduces the memory-reuse accounting (§4.5): for each system,
// warm it up, trigger its representative bug, let PHOENIX recover with the
// mark-and-sweep cleanup, and report:
//
//   - footprint: mapped bytes of the crashed process at failure time (the
//     old address space's mappings survive preserve_exec, so they are read
//     post-mortem);
//   - preserved: live heap bytes right after recovery (post-cleanup);
//   - cleanup: bytes the mark-and-sweep pass freed;
//   - reuse: preserved / footprint.
//
// The paper's headline: ~88% of memory is safely reused on average; the
// compute apps skip cleanup and preserve >90%.
func RunTab9(o Options) error {
	o.fill()
	warm := 10 * time.Second
	if o.Quick {
		warm = 3 * time.Second
	}
	cases := []struct {
		system string
		bug    string
	}{
		{"kvstore", "R3"},
		{"lsmdb", "L1"},
		{"webcache-varnish", "VA1"},
		{"webcache-squid", "S3"},
		{"boost", "X1"},
		{"particle", "VP1"},
	}
	fmt.Fprintf(o.Out, "%-18s %12s %12s %12s %8s\n",
		"system", "footprint", "preserved", "cleanup", "reuse")
	for _, tc := range cases {
		cfg := recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true, WatchdogTimeout: 2 * time.Second}
		sh, err := buildSystem(tc.system, cfg, o, nil)
		if err != nil {
			return err
		}
		if err := sh.h.RunUntil(sh.h.M.Clock.Now() + warm); err != nil {
			return err
		}
		oldProc := sh.h.Proc()
		sh.arm(tc.bug)
		// Step until the failure has been handled (bounded for safety).
		for i := 0; i < 1000 && sh.h.Stat.Failures == 0; i++ {
			if err := sh.h.Step(); err != nil {
				return err
			}
		}
		if sh.h.Stat.PhoenixRestarts != 1 {
			return fmt.Errorf("tab9 %s: expected one phoenix recovery, got %+v", tc.system, sh.h.Stat)
		}
		// Footprint: the dead process's mappings at crash time.
		footprint := oldProc.AS.MappedBytes()
		h := sh.h.Runtime().MainHeap()
		if h == nil {
			return fmt.Errorf("tab9 %s: no heap after recovery", tc.system)
		}
		var cleaned int64
		if c := sh.h.Runtime().AwaitCleanup(); c != nil {
			cleaned = c.FreedBytes
		}
		preserved := h.Stats().LiveBytes
		reuse := 100 * float64(preserved) / float64(footprint)
		fmt.Fprintf(o.Out, "%-18s %12s %12s %12s %7.1f%%\n",
			tc.system, fmtBytes(footprint), fmtBytes(preserved), fmtBytes(cleaned), reuse)
	}
	return nil
}
