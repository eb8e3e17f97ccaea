package simnet

import (
	"math"
	"sync"
	"time"
)

// vclock is the virtual clock of the simulated wire. It keeps the current
// time twice: as nanoseconds since the wire's start, which is what the reply
// queue orders on, and as the time.Time that offset stands for, recomputed
// only when the clock moves. Reading the clock, handing it to a Responder and
// timing a delivery at the current instant are then plain copies. Its mutex
// guards the whole wire embedding it.
type vclock struct {
	mu    sync.Mutex
	start time.Time
	off   int64     // nanoseconds since start; never decreases
	now   time.Time // start.Add(off)
}

func (c *vclock) init(start time.Time) { c.start, c.off, c.now = start, 0, start }

// Now implements scanner.Clock (virtual time).
func (c *vclock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements scanner.Clock by advancing virtual time.
func (c *vclock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.advance(d)
	c.mu.Unlock()
}

// advance moves the clock d forward. c.mu must be held.
func (c *vclock) advance(d time.Duration) { c.set(c.after(d)) }

// after is the offset d past the current time, saturating at the end of the
// int64 range instead of wrapping into the past: a reply due after the end
// of time is never delivered, as it would not be with unbounded arithmetic.
// (off ≥ 0, so a negative d cannot overflow.)
func (c *vclock) after(d time.Duration) int64 {
	at := c.off + int64(d)
	if d > 0 && at < c.off {
		return math.MaxInt64
	}
	return at
}

// set moves the clock to off.
func (c *vclock) set(off int64) {
	c.off = off
	c.now = c.start.Add(time.Duration(off))
}

// timeAt converts an offset back to the instant it stands for.
func (c *vclock) timeAt(off int64) time.Time {
	if off == c.off {
		return c.now
	}
	return c.start.Add(time.Duration(off))
}

// due reports whether q's earliest reply is due: now, or — with wait > 0 —
// no later than wait from now, in which case the clock moves to its delivery
// time. The reply stays queued at q.top() for the caller to read and then
// pop. This is the one delivery rule of the virtual clock, shared by every read
// path of the wire. c.mu must be held.
func due[R any](c *vclock, q *replyQueue[R], wait time.Duration) bool {
	if q.len() == 0 {
		return false
	}
	// at > off ≥ 0 below, so the difference cannot overflow.
	if at := q.slab[q.top()].at; at > c.off {
		if wait <= 0 || at-c.off > int64(wait) {
			return false
		}
		c.set(at)
	}
	return true
}
