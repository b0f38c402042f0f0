package metrics

import (
	"testing"
	"time"
)

// fill records a steady stream of effective ops at `rate` per second over
// [from, to).
func fill(t *Timeline, from, to time.Duration, rate int) {
	step := time.Second / time.Duration(rate)
	for at := from; at < to; at += step {
		t.Record(at, true, true)
	}
}

func TestDowntime(t *testing.T) {
	tl := NewTimeline(100 * time.Millisecond)
	fill(tl, 0, 10*time.Second, 100)
	tl.MarkFailure(10 * time.Second)
	tl.MarkResumed(12 * time.Second)
	fill(tl, 12*time.Second, 20*time.Second, 100)
	if got := tl.Downtime(); got != 2*time.Second {
		t.Fatalf("Downtime = %v", got)
	}
}

func TestDowntimeNeverResumed(t *testing.T) {
	tl := NewTimeline(100 * time.Millisecond)
	fill(tl, 0, 5*time.Second, 100)
	tl.MarkFailure(5 * time.Second)
	// Pad the observation window with failed attempts.
	for at := 5 * time.Second; at < 9*time.Second; at += 100 * time.Millisecond {
		tl.Record(at, false, false)
	}
	if got := tl.Downtime(); got < 3*time.Second {
		t.Fatalf("Downtime without resume = %v", got)
	}
}

func TestNoFailureZeroDowntime(t *testing.T) {
	tl := NewTimeline(0) // default bucket
	fill(tl, 0, time.Second, 10)
	if tl.Downtime() != 0 {
		t.Fatal("downtime without failure")
	}
	if _, ok := tl.FailureAt(); ok {
		t.Fatal("phantom failure")
	}
}

func TestMarkOnlyFirst(t *testing.T) {
	tl := NewTimeline(100 * time.Millisecond)
	tl.MarkFailure(time.Second)
	tl.MarkFailure(2 * time.Second)
	if at, _ := tl.FailureAt(); at != time.Second {
		t.Fatal("second MarkFailure overwrote the first")
	}
	tl.MarkResumed(3 * time.Second)
	tl.MarkResumed(4 * time.Second)
	if at, _ := tl.ResumedAt(); at != 3*time.Second {
		t.Fatal("second MarkResumed overwrote the first")
	}
}

func TestFifthSecondAvailability(t *testing.T) {
	tl := NewTimeline(100 * time.Millisecond)
	fill(tl, 0, 10*time.Second, 100)
	tl.MarkFailure(10 * time.Second)
	tl.MarkResumed(11 * time.Second)
	// Recover at half rate.
	fill(tl, 11*time.Second, 20*time.Second, 50)
	got := tl.AvailabilityAtFifthSecond()
	if got < 0.4 || got > 0.6 {
		t.Fatalf("5th-second availability = %.2f, want ~0.5", got)
	}
}

func TestRecovery90(t *testing.T) {
	tl := NewTimeline(100 * time.Millisecond)
	fill(tl, 0, 10*time.Second, 100)
	tl.MarkFailure(10 * time.Second)
	tl.MarkResumed(11 * time.Second)
	// 3 seconds at 50%, then full rate.
	fill(tl, 11*time.Second, 14*time.Second, 50)
	fill(tl, 14*time.Second, 25*time.Second, 100)
	rec, ok := tl.RecoveryTime90()
	if !ok {
		t.Fatal("90% never reached")
	}
	if rec < 2*time.Second || rec > 4500*time.Millisecond {
		t.Fatalf("RecoveryTime90 = %v, want ~3s", rec)
	}
}

// A resumption inside a bucket must not charge the outage before it to the
// recovery: with full rate from the resumption on, the first window from the
// next bucket boundary already reaches 90%.
func TestRecovery90IgnoresOutageBeforeResumption(t *testing.T) {
	tl := NewTimeline(250 * time.Millisecond)
	fill(tl, 0, 10*time.Second, 100)
	tl.MarkFailure(10 * time.Second)
	tl.MarkResumed(10240 * time.Millisecond)
	fill(tl, 10240*time.Millisecond, 20*time.Second, 100)
	rec, ok := tl.RecoveryTime90()
	if !ok || rec != 0 {
		t.Fatalf("RecoveryTime90 = %v, %v; want 0, true", rec, ok)
	}
}

func TestRecovery90Never(t *testing.T) {
	tl := NewTimeline(100 * time.Millisecond)
	fill(tl, 0, 10*time.Second, 100)
	tl.MarkFailure(10 * time.Second)
	tl.MarkResumed(11 * time.Second)
	fill(tl, 11*time.Second, 20*time.Second, 10) // stuck at 10%
	if _, ok := tl.RecoveryTime90(); ok {
		t.Fatal("90% reported despite 10% rate")
	}
	sum := tl.Summarize()
	if sum.Recovered90 {
		t.Fatal("summary claims recovery")
	}
	if sum.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestRecordWork(t *testing.T) {
	tl := NewTimeline(time.Second)
	tl.RecordWork(0, 10)
	tl.RecordWork(500*time.Millisecond, 5)
	pts := tl.Series()
	if len(pts) != 1 || pts[0].Rate != 15 {
		t.Fatalf("Series = %+v", pts)
	}
}

func TestSteadyRateUsesPreFailureWindow(t *testing.T) {
	tl := NewTimeline(100 * time.Millisecond)
	// Slow warm-up then fast steady state.
	fill(tl, 0, 5*time.Second, 10)
	fill(tl, 5*time.Second, 10*time.Second, 100)
	tl.MarkFailure(10 * time.Second)
	rate := tl.SteadyRate()
	if rate < 90 || rate > 110 {
		t.Fatalf("SteadyRate = %.1f, want ~100 (warm-up excluded)", rate)
	}
}

func TestRecoveryCountersSnapshot(t *testing.T) {
	c := NewRecoveryCounters()
	c.PreservesStaged.Store(3)
	c.PreservesCommitted.Store(2)
	c.PreservesAborted.Store(1)
	c.ChecksumMismatches.Store(1)
	snap := c.Snapshot()
	for name, want := range map[string]int64{
		"preserves_staged":    3,
		"preserves_committed": 2,
		"preserves_aborted":   1,
		"checksum_mismatches": 1,
	} {
		if snap[name] != want {
			t.Fatalf("%s = %d, want %d", name, snap[name], want)
		}
	}
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}
