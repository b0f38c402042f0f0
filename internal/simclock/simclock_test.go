package simclock

import (
	"fmt"
	"testing"
	"time"
)

func TestAdvance(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(10 * time.Millisecond)
	if got := c.Now(); got != 15*time.Millisecond {
		t.Fatalf("Now() = %v, want 15ms", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	New().Advance(-time.Nanosecond)
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.AdvanceTo(7 * time.Second)
	if c.Now() != 7*time.Second {
		t.Fatalf("AdvanceTo: Now() = %v", c.Now())
	}
	c.AdvanceTo(3 * time.Second) // no-op in the past
	if c.Now() != 7*time.Second {
		t.Fatalf("AdvanceTo past moved clock: %v", c.Now())
	}
}

func TestTimerFires(t *testing.T) {
	c := New()
	var fired []time.Duration
	c.AfterFunc(10*time.Millisecond, func() { fired = append(fired, c.Now()) })
	c.AfterFunc(5*time.Millisecond, func() { fired = append(fired, c.Now()) })
	c.Advance(20 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d timers, want 2", len(fired))
	}
	if fired[0] != 5*time.Millisecond || fired[1] != 10*time.Millisecond {
		t.Fatalf("timers fired at %v, want [5ms 10ms]", fired)
	}
	if c.Now() != 20*time.Millisecond {
		t.Fatalf("clock at %v after Advance", c.Now())
	}
}

func TestTimerOrderTieBreak(t *testing.T) {
	c := New()
	var order []int
	c.AfterFunc(time.Millisecond, func() { order = append(order, 1) })
	c.AfterFunc(time.Millisecond, func() { order = append(order, 2) })
	c.Advance(time.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("equal-deadline timers fired in order %v, want [1 2]", order)
	}
}

func TestTimerNotYetDue(t *testing.T) {
	c := New()
	fired := false
	c.AfterFunc(10*time.Millisecond, func() { fired = true })
	c.Advance(9 * time.Millisecond)
	if fired {
		t.Fatal("timer fired early")
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", c.Pending())
	}
	c.Advance(time.Millisecond)
	if !fired {
		t.Fatal("timer did not fire at deadline")
	}
}

func TestStop(t *testing.T) {
	c := New()
	fired := false
	tm := c.AfterFunc(time.Millisecond, func() { fired = true })
	if !c.Stop(tm) {
		t.Fatal("Stop returned false for pending timer")
	}
	c.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if c.Stop(tm) {
		t.Fatal("second Stop returned true")
	}
}

func TestStopAfterFire(t *testing.T) {
	c := New()
	tm := c.AfterFunc(time.Millisecond, func() {})
	c.Advance(time.Millisecond)
	if !tm.Fired() {
		t.Fatal("timer did not fire")
	}
	if c.Stop(tm) {
		t.Fatal("Stop after fire returned true")
	}
}

func TestTimerSchedulesTimer(t *testing.T) {
	c := New()
	var at []time.Duration
	c.AfterFunc(time.Millisecond, func() {
		at = append(at, c.Now())
		c.AfterFunc(time.Millisecond, func() { at = append(at, c.Now()) })
	})
	c.Advance(5 * time.Millisecond)
	if len(at) != 2 || at[0] != time.Millisecond || at[1] != 2*time.Millisecond {
		t.Fatalf("cascaded timers fired at %v", at)
	}
}

func TestPendingDeadlines(t *testing.T) {
	c := New()
	c.AfterFunc(3*time.Millisecond, nil)
	c.AfterFunc(time.Millisecond, nil)
	dl := c.PendingDeadlines()
	if len(dl) != 2 || dl[0] != time.Millisecond || dl[1] != 3*time.Millisecond {
		t.Fatalf("PendingDeadlines = %v", dl)
	}
}

func TestNegativeAfterFuncClamps(t *testing.T) {
	c := New()
	fired := false
	c.AfterFunc(-time.Second, func() { fired = true })
	c.Advance(0)
	if !fired {
		t.Fatal("negative-delay timer did not fire immediately")
	}
}

// linearClock is the clock's former timer store: an unsorted slice that
// nextDue scans on every fire and remove splices. FuzzHeapMatchesLinearScan
// holds the heap to its firing order.
type linearClock struct {
	now    time.Duration
	timers []*linearTimer
	seq    uint64
}

type linearTimer struct {
	deadline       time.Duration
	fn             func()
	fired, stopped bool
	seq            uint64
}

func (c *linearClock) AfterFunc(d time.Duration, fn func()) *linearTimer {
	if d < 0 {
		d = 0
	}
	c.seq++
	t := &linearTimer{deadline: c.now + d, fn: fn, seq: c.seq}
	c.timers = append(c.timers, t)
	return t
}

func (c *linearClock) Stop(t *linearTimer) bool {
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	c.remove(t)
	return true
}

func (c *linearClock) Advance(d time.Duration) {
	target := c.now + d
	for {
		t := c.nextDue(target)
		if t == nil {
			break
		}
		c.now = t.deadline
		c.remove(t)
		t.fired = true
		if t.fn != nil {
			t.fn()
		}
	}
	c.now = target
}

func (c *linearClock) nextDue(target time.Duration) *linearTimer {
	var best *linearTimer
	for _, t := range c.timers {
		if t.deadline > target {
			continue
		}
		if best == nil || t.deadline < best.deadline ||
			(t.deadline == best.deadline && t.seq < best.seq) {
			best = t
		}
	}
	return best
}

func (c *linearClock) remove(t *linearTimer) {
	for i, x := range c.timers {
		if x == t {
			c.timers = append(c.timers[:i], c.timers[i+1:]...)
			return
		}
	}
}

// clockOps is the surface the differential fuzz drives on either clock.
type clockOps struct {
	now     func() time.Duration
	after   func(d time.Duration, fn func()) (stop func() bool)
	advance func(time.Duration)
	pending func() int
}

func heapOps(c *Clock) clockOps {
	return clockOps{
		now: c.Now,
		after: func(d time.Duration, fn func()) func() bool {
			t := c.AfterFunc(d, fn)
			return func() bool { return c.Stop(t) }
		},
		advance: c.Advance,
		pending: c.Pending,
	}
}

func linearOps(c *linearClock) clockOps {
	return clockOps{
		now: func() time.Duration { return c.now },
		after: func(d time.Duration, fn func()) func() bool {
			t := c.AfterFunc(d, fn)
			return func() bool { return c.Stop(t) }
		},
		advance: c.Advance,
		pending: func() int { return len(c.timers) },
	}
}

// replayClockOps reads ops two bytes at a time (op, arg) and returns the log
// of everything observable: which timer fired when, what Stop reported, and
// the pending count. Deadlines come from a small range so ties are common;
// a timer registered with depth > 0 schedules a child when it fires, and a
// child may be due at once.
func replayClockOps(ops []byte, c clockOps) []string {
	var log []string
	var stops []func() bool
	var schedule func(d time.Duration, depth int)
	schedule = func(d time.Duration, depth int) {
		id := len(stops)
		stops = append(stops, c.after(d, func() {
			log = append(log, fmt.Sprintf("fire %d at %v", id, c.now()))
			if depth > 0 {
				schedule(time.Duration(id%4)*100*time.Microsecond, depth-1)
			}
		}))
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], int(ops[i+1])
		switch op % 4 {
		case 0:
			schedule(time.Duration(arg%16)*100*time.Microsecond-100*time.Microsecond, int(op/4)%3)
		case 1:
			if len(stops) > 0 {
				k := arg % len(stops)
				log = append(log, fmt.Sprintf("stop %d = %v", k, stops[k]()))
			}
		case 2:
			c.advance(time.Duration(arg%8) * 100 * time.Microsecond)
		case 3:
			log = append(log, fmt.Sprintf("pending %d at %v", c.pending(), c.now()))
		}
	}
	c.advance(time.Hour)
	return append(log, fmt.Sprintf("pending %d at %v", c.pending(), c.now()))
}

// FuzzHeapMatchesLinearScan drives random AfterFunc/Stop/Advance sequences,
// including callbacks that schedule more timers, through the heap-ordered
// clock and the former linear scan, and requires identical observations.
func FuzzHeapMatchesLinearScan(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 2, 7, 3, 0})
	f.Add([]byte{4, 0, 8, 0, 0, 0, 1, 1, 2, 0, 3, 0, 2, 5})
	f.Add([]byte{0, 9, 0, 2, 0, 15, 0, 2, 1, 0, 1, 3, 2, 7, 2, 7, 0, 4, 1, 0})
	f.Add([]byte{8, 1, 8, 1, 8, 1, 2, 1, 1, 2, 0, 0, 6, 3, 2, 3, 3, 3})
	// Stopping a mid-heap timer moves the last leaf into its slot, and
	// here that leaf must sift up.
	f.Add([]byte("0007000C07070012"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		want := replayClockOps(ops, linearOps(&linearClock{}))
		got := replayClockOps(ops, heapOps(New()))
		if len(got) != len(want) {
			t.Fatalf("heap logged %d events, linear scan %d\nheap:   %v\nlinear: %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: heap %q, linear scan %q", i, got[i], want[i])
			}
		}
	})
}

// BenchmarkAdvance10kPending keeps 10,000 timers pending. Each iteration
// arms and stops a timeout (the frontend's pattern) and advances far enough
// to fire one timer, which re-arms itself at the back of the queue.
func BenchmarkAdvance10kPending(b *testing.B) {
	const pending = 10_000
	c := New()
	var rearm func()
	rearm = func() { c.AfterFunc(pending*time.Microsecond, rearm) }
	for i := 1; i <= pending; i++ {
		c.AfterFunc(time.Duration(i)*time.Microsecond, rearm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Stop(c.AfterFunc(5*time.Millisecond, nil))
		c.Advance(time.Microsecond)
	}
	if c.Pending() != pending {
		b.Fatalf("%d timers pending, want %d", c.Pending(), pending)
	}
}
