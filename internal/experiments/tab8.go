package experiments

import (
	"fmt"
	"time"

	"phoenix/internal/recovery"
)

// RunTab8 reproduces the runtime-overhead comparison (§4.5): fault-free
// runs of every system under PHOENIX, CRIU, and Builtin, reported as the
// slowdown relative to Vanilla. Snapshot cadence is scaled with the run
// length the same way the paper's 30 s interval relates to its multi-minute
// runs.
//
// The CRIU snapshot interval is scaled so the image-bytes-per-interval
// ratio approximates the paper's deployment (6 GB images every 30 s);
// without the scaling, our reduced datasets would make CRIU look cheap.
//
// Expected shape: PHOENIX a few percent (unsafe-region marks and allocator
// tracking), Builtin similar (BGSAVE-style async snapshots), CRIU an order
// of magnitude more (stop-the-world full-memory dumps).
func RunTab8(o Options) error {
	o.fill()
	window := 30 * time.Second
	if o.Quick {
		window = 2 * time.Second
	}
	systems := []string{"kvstore", "lsmdb", "webcache-varnish", "webcache-squid", "boost", "particle"}
	fmt.Fprintf(o.Out, "%-18s %10s %10s %10s\n", "system", "PHOENIX", "CRIU", "Builtin")
	for _, system := range systems {
		base, err := measureWork(system, recovery.Config{Mode: recovery.ModeVanilla}, o, window)
		if err != nil {
			return fmt.Errorf("tab8 %s vanilla: %w", system, err)
		}
		row := make(map[string]string)
		for _, mc := range []struct {
			label string
			cfg   recovery.Config
		}{
			{"PHOENIX", recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true}},
			{"CRIU", recovery.Config{Mode: recovery.ModeCRIU, CheckpointInterval: window / 50}},
			{"Builtin", recovery.Config{Mode: recovery.ModeBuiltin, CheckpointInterval: window / 10}},
		} {
			if mc.label == "Builtin" && !hasBuiltin(system) {
				row[mc.label] = "N/A"
				continue
			}
			work, err := measureWork(system, mc.cfg, o, window)
			if err != nil {
				return fmt.Errorf("tab8 %s %s: %w", system, mc.label, err)
			}
			overhead := (float64(base)/float64(work) - 1) * 100
			if overhead < 0 {
				overhead = 0
			}
			row[mc.label] = fmt.Sprintf("%.1f%%", overhead)
		}
		fmt.Fprintf(o.Out, "%-18s %10s %10s %10s\n", system, row["PHOENIX"], row["CRIU"], row["Builtin"])
	}
	return nil
}

func hasBuiltin(system string) bool {
	switch system {
	case "webcache-varnish", "webcache-squid":
		return false
	}
	return true
}

// measureWork runs the system fault-free for a fixed window of simulated
// time and returns the number of completed requests/iterations — higher is
// faster, so overhead = base/work - 1.
func measureWork(system string, cfg recovery.Config, o Options, window time.Duration) (int, error) {
	cfg.WatchdogTimeout = time.Hour // no hang handling needed
	sh, err := buildSystem(system, cfg, o, nil)
	if err != nil {
		return 0, err
	}
	start := sh.h.M.Clock.Now()
	before := sh.h.Stat.Requests
	if err := sh.h.RunUntil(start + window); err != nil {
		return 0, err
	}
	if sh.h.Stat.Failures != 0 {
		return 0, fmt.Errorf("fault-free run failed: %+v", sh.h.Stat)
	}
	return sh.h.Stat.Requests - before, nil
}
