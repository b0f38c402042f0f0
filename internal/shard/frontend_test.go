package shard

import (
	"slices"
	"testing"
	"time"

	"phoenix/internal/simclock"
	"phoenix/internal/workload"
)

// TestFailedRequestCountsInPercentiles: a request its client gave up on
// enters the latency percentiles at the time it gave up, so a failure
// weighs on the tail instead of leaving it.
func TestFailedRequestCountsInPercentiles(t *testing.T) {
	f := &Fabric{clk: simclock.New()}
	fe := &frontend{f: f, pending: map[uint64]*pending{}}
	for rid, c := range []struct {
		after  time.Duration
		failed bool
	}{{time.Millisecond, false}, {32 * time.Millisecond, true}, {2 * time.Millisecond, false}} {
		p := &pending{req: &workload.Request{Op: workload.OpRead, Key: "k"}, issuedAt: f.clk.Now()}
		fe.pending[uint64(rid)] = p
		f.clk.Advance(c.after)
		fe.finish(uint64(rid), p, !c.failed, c.failed)
	}
	if f.failed != 1 || f.served != 2 {
		t.Fatalf("served %d, failed %d; want 2 and 1", f.served, f.failed)
	}
	if len(f.latencies) != 3 || slices.Max(f.latencies) != 32*time.Millisecond {
		t.Fatalf("latencies %v, want all three requests' with the failed one's 32ms", f.latencies)
	}
}
