// Package simclock provides a deterministic virtual clock used by every
// timed component in the PHOENIX simulation.
//
// All experiment timings in this repository are expressed in simulated time:
// operations advance the clock by modelled costs (see internal/costmodel)
// instead of consuming wall-clock time. This makes experiments deterministic,
// hardware-independent, and fast, while preserving the relative shapes the
// paper reports (downtime ratios, warm-up curves, crossover points).
package simclock

import (
	"fmt"
	"sort"
	"time"
)

// Clock is a deterministic virtual clock. It is not safe for concurrent use;
// the simulation is single-threaded by design (see DESIGN.md).
type Clock struct {
	now time.Duration
	// timers is a binary min-heap of the pending timers ordered by
	// (deadline, seq): the root is the next to fire, and equal deadlines
	// fire in registration order.
	timers  []*Timer
	seq     uint64 // tie-break for timers with equal deadline
	offline bool
}

// New returns a clock positioned at time zero.
func New() *Clock {
	return &Clock{}
}

// Now returns the current simulated time as an offset from the simulation
// start.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d, firing any timers whose deadline is
// reached, in deadline order. Advancing by a negative duration panics: the
// simulation clock is monotonic.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	target := c.now + d
	if c.offline {
		// Offline time accrues without firing main-timeline timers; see
		// RunOffline.
		c.now = target
		return
	}
	for len(c.timers) > 0 && c.timers[0].deadline <= target {
		t := c.timers[0]
		c.now = t.deadline
		c.remove(t)
		t.fired = true
		if t.fn != nil {
			t.fn()
		}
	}
	c.now = target
}

// AdvanceTo moves the clock to the absolute simulated time ts (a no-op if ts
// is in the past).
func (c *Clock) AdvanceTo(ts time.Duration) {
	if ts > c.now {
		c.Advance(ts - c.now)
	}
}

// before orders the heap: earlier deadline first, then registration order.
func (a *Timer) before(b *Timer) bool {
	return a.deadline < b.deadline || (a.deadline == b.deadline && a.seq < b.seq)
}

func (c *Clock) push(t *Timer) {
	t.index = int32(len(c.timers))
	c.timers = append(c.timers, t)
	c.up(int(t.index))
}

// remove takes a pending timer out of the heap by its index.
func (c *Clock) remove(t *Timer) {
	i, last := int(t.index), len(c.timers)-1
	if i != last {
		c.swap(i, last)
	}
	c.timers[last] = nil
	c.timers = c.timers[:last]
	t.index = -1
	if i != last && !c.down(i) {
		c.up(i)
	}
}

func (c *Clock) swap(i, j int) {
	h := c.timers
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = int32(i), int32(j)
}

func (c *Clock) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.timers[i].before(c.timers[parent]) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

// down sifts the timer at i toward the leaves and reports whether it moved.
func (c *Clock) down(i int) bool {
	start, n := i, len(c.timers)
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && c.timers[l].before(c.timers[least]) {
			least = l
		}
		if r < n && c.timers[r].before(c.timers[least]) {
			least = r
		}
		if least == i {
			return i != start
		}
		c.swap(i, least)
		i = least
	}
}

// RunOffline executes fn, measuring how much simulated time fn's operations
// would consume, without moving the main timeline: the clock is restored to
// its prior position afterwards and no timers fire. This models work running
// concurrently in a background process — cross-check validation's default
// recovery (§3.6) — whose duration matters (it delays the verdict) but whose
// execution does not stall the main process.
func (c *Clock) RunOffline(fn func()) time.Duration {
	if c.offline {
		panic("simclock: nested RunOffline")
	}
	saved := c.now
	c.offline = true
	defer func() {
		c.offline = false
		c.now = saved
	}()
	fn()
	return c.now - saved
}

// Timer is a one-shot virtual timer registered with a Clock.
type Timer struct {
	deadline time.Duration
	fn       func()
	seq      uint64
	// index is the timer's position in the clock's heap while pending; an
	// int32 beside the two flags keeps a Timer at 32 bytes.
	index   int32
	fired   bool
	stopped bool
}

// AfterFunc registers fn to run when the clock passes the current time plus d.
// fn runs synchronously inside Advance.
func (c *Clock) AfterFunc(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	c.seq++
	t := &Timer{deadline: c.now + d, fn: fn, seq: c.seq}
	c.push(t)
	return t
}

// Stop cancels the timer if it has not fired. It reports whether the timer
// was still pending.
func (c *Clock) Stop(t *Timer) bool {
	if t == nil || t.fired || t.stopped {
		return false
	}
	t.stopped = true
	c.remove(t)
	return true
}

// Fired reports whether the timer has already run.
func (t *Timer) Fired() bool { return t.fired }

// Deadline returns the timer's absolute deadline.
func (t *Timer) Deadline() time.Duration { return t.deadline }

// Pending returns the number of timers that have not fired or been stopped.
func (c *Clock) Pending() int { return len(c.timers) }

// PendingDeadlines returns the deadlines of all pending timers, sorted.
// It exists for tests and diagnostics.
func (c *Clock) PendingDeadlines() []time.Duration {
	out := make([]time.Duration, 0, len(c.timers))
	for _, t := range c.timers {
		out = append(out, t.deadline)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
