// Package metrics collects simulated-time service timelines and computes the
// three availability metrics of Figure 10: downtime, relative effective
// availability at the fifth second after restart, and time to restore 90% of
// pre-failure effective availability.
package metrics

import (
	"fmt"
	"time"
)

// Timeline accumulates per-bucket service counters over simulated time.
type Timeline struct {
	// Bucket is the histogram resolution.
	Bucket time.Duration

	// ok[i] counts successful operations in bucket i; attempts[i] all
	// attempted operations; good[i] counts "effective" successes (cache
	// hits, successful reads) per the paper's effective-availability metric.
	ok       []int64
	attempts []int64
	good     []int64

	// Failure/recovery markers.
	failureAt time.Duration
	resumedAt time.Duration
	hasFail   bool
	hasResume bool
}

// NewTimeline creates a timeline with the given bucket width.
func NewTimeline(bucket time.Duration) *Timeline {
	if bucket <= 0 {
		bucket = 250 * time.Millisecond
	}
	return &Timeline{Bucket: bucket}
}

func (t *Timeline) bucketOf(at time.Duration) int { return int(at / t.Bucket) }

func (t *Timeline) ensure(i int) {
	for len(t.ok) <= i {
		t.ok = append(t.ok, 0)
		t.attempts = append(t.attempts, 0)
		t.good = append(t.good, 0)
	}
}

// Record notes one operation at simulated time at. ok means the request was
// answered; effective means it counts toward effective availability (e.g. a
// cache hit or successful read). Effective implies ok.
func (t *Timeline) Record(at time.Duration, ok, effective bool) {
	i := t.bucketOf(at)
	t.ensure(i)
	t.attempts[i]++
	if ok {
		t.ok[i]++
	}
	if effective {
		t.good[i]++
	}
}

// RecordWork notes units of computational progress (batch apps): units of
// work count as both ok and effective.
func (t *Timeline) RecordWork(at time.Duration, units int64) {
	i := t.bucketOf(at)
	t.ensure(i)
	t.attempts[i] += units
	t.ok[i] += units
	t.good[i] += units
}

// MarkFailure records the instant the fault manifested (service stopped).
func (t *Timeline) MarkFailure(at time.Duration) {
	if !t.hasFail {
		t.failureAt, t.hasFail = at, true
	}
}

// MarkResumed records the first successful post-recovery response.
func (t *Timeline) MarkResumed(at time.Duration) {
	if t.hasFail && !t.hasResume {
		t.resumedAt, t.hasResume = at, true
	}
}

// FailureAt returns the failure instant (and whether one was marked).
func (t *Timeline) FailureAt() (time.Duration, bool) { return t.failureAt, t.hasFail }

// ResumedAt returns the service-resumption instant.
func (t *Timeline) ResumedAt() (time.Duration, bool) { return t.resumedAt, t.hasResume }

// Downtime returns the total time the system could not serve any request:
// from failure to first successful post-recovery response (§4.3.3 metric 1).
func (t *Timeline) Downtime() time.Duration {
	if !t.hasFail {
		return 0
	}
	if !t.hasResume {
		// Never resumed within the observation window.
		return time.Duration(len(t.ok))*t.Bucket - t.failureAt
	}
	return t.resumedAt - t.failureAt
}

// rate returns effective successes per second over [from, to).
func (t *Timeline) rate(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	lo, hi := t.bucketOf(from), t.bucketOf(to)
	var sum int64
	for i := lo; i < hi && i < len(t.good); i++ {
		sum += t.good[i]
	}
	return float64(sum) / (to - from).Seconds()
}

// SteadyRate returns the pre-failure effective-availability baseline: the
// rate over the two seconds immediately preceding the failure (the paper
// normalizes to availability "before failure"; using the final window keeps
// warm-up out of the baseline).
func (t *Timeline) SteadyRate() float64 {
	end := t.failureAt
	if !t.hasFail {
		end = time.Duration(len(t.good)) * t.Bucket
	}
	start := end - 2*time.Second
	if start < end/2 {
		start = end / 2 // short runs: fall back to the second half
	}
	return t.rate(start, end)
}

// AvailabilityAtFifthSecond returns effective availability during the fifth
// second after service resumption, normalized to the pre-failure baseline
// (§4.3.3 metric 2). Values are clamped to [0, ~].
func (t *Timeline) AvailabilityAtFifthSecond() float64 {
	if !t.hasResume {
		return 0
	}
	base := t.SteadyRate()
	if base == 0 {
		return 0
	}
	from := t.resumedAt + 4*time.Second
	return t.rate(from, from+time.Second) / base
}

// RecoveryTime90 returns the time from service resumption until a one-second
// window first reaches 90% of the pre-failure effective availability
// (§4.3.3 metric 3). The second return is false if 90% was never reached in
// the observation window. rate sums whole buckets, so the windows start at
// the first bucket boundary at or after the resumption, and the result is
// measured from that boundary: a window from the bucket holding the
// resumption would count the outage before it.
func (t *Timeline) RecoveryTime90() (time.Duration, bool) {
	if !t.hasResume {
		return 0, false
	}
	base := t.SteadyRate()
	if base == 0 {
		return 0, false
	}
	window := time.Second
	end := time.Duration(len(t.good)) * t.Bucket
	start := (t.resumedAt + t.Bucket - 1) / t.Bucket * t.Bucket
	for at := start; at+window <= end; at += t.Bucket {
		if t.rate(at, at+window) >= 0.9*base {
			return at - start, true
		}
	}
	return 0, false
}

// Series returns (time, effective-rate) points at bucket granularity, for
// plotting timelines like Figures 1, 11, 12, and 13.
func (t *Timeline) Series() []Point {
	pts := make([]Point, len(t.good))
	for i := range t.good {
		pts[i] = Point{
			T:    time.Duration(i) * t.Bucket,
			Rate: float64(t.good[i]) / t.Bucket.Seconds(),
		}
	}
	return pts
}

// Point is one timeline sample.
type Point struct {
	T    time.Duration
	Rate float64 // effective operations per second
}

// Summary bundles the three Figure-10 metrics.
type Summary struct {
	Downtime    time.Duration
	FifthSecond float64 // relative effective availability at the 5th second
	Recovery90  time.Duration
	Recovered90 bool
}

// Summarize computes the Figure-10 metrics from the timeline.
func (t *Timeline) Summarize() Summary {
	rec90, ok := t.RecoveryTime90()
	return Summary{
		Downtime:    t.Downtime(),
		FifthSecond: t.AvailabilityAtFifthSecond(),
		Recovery90:  rec90,
		Recovered90: ok,
	}
}

// String formats the summary as a table row.
func (s Summary) String() string {
	rec := "never"
	if s.Recovered90 {
		rec = fmt.Sprintf("%.2fs", s.Recovery90.Seconds())
	}
	return fmt.Sprintf("downtime=%.3fs 5s-avail=%.2f 90%%-rec=%s",
		s.Downtime.Seconds(), s.FifthSecond, rec)
}
