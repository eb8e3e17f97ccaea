package scanner

import (
	"sync"
	"time"
)

// Clock abstracts time so scans over the simulated network can run in
// virtual time (deterministic, faster than real time) while real transports
// use the wall clock.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// virtualClock is a standalone virtual clock: it starts where it is told and
// moves only when slept on.
type virtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a Clock that reads start until Sleep advances it,
// for campaigns where no single transport owns time — a fleet's vantages
// build a fresh network per scan, so the Monitor's round scheduling needs a
// clock of its own. Safe for concurrent use.
func NewVirtualClock(start time.Time) Clock { return &virtualClock{now: start} }

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// RateLimiter is a token bucket limiting transmissions to a fixed packet
// rate, as ZMap's --rate does. The paper's campaign used 8,000 pps (App. A).
type RateLimiter struct {
	clock    Clock
	interval time.Duration // time per token
	burst    int64
	tokens   int64
	last     time.Time
	slept    time.Duration // cumulative pacing sleep (single-caller state)
}

// DefaultRate is the campaign's probing rate in packets per second.
const DefaultRate = 8000

// NewRateLimiter builds a limiter for `rate` packets per second with the
// given burst allowance (minimum 1). A rate ≤ 0 disables limiting.
func NewRateLimiter(clock Clock, rate int, burst int) *RateLimiter {
	rl := new(RateLimiter)
	rl.reset(clock, rate, burst)
	return rl
}

// reset makes rl the limiter NewRateLimiter builds, in place: a scan keeps
// its limiter by value.
func (rl *RateLimiter) reset(clock Clock, rate int, burst int) {
	if burst < 1 {
		burst = 1
	}
	*rl = RateLimiter{clock: clock, burst: int64(burst), tokens: int64(burst)}
	if rate > 0 {
		rl.interval = time.Second / time.Duration(rate)
		if rl.interval <= 0 {
			rl.interval = time.Nanosecond
		}
	}
	rl.last = clock.Now()
}

// WaitN blocks until n packets may be sent, paying the whole batch's pacing
// debt in one sleep. The bucket may go negative while the sleep refills it,
// so WaitN(1) called k times and one WaitN(k) release sends at the same
// aggregate rate; callers stamp all n probes at the single post-wait instant.
func (rl *RateLimiter) WaitN(n int) {
	if rl.interval == 0 || n <= 0 {
		return
	}
	rl.refill(rl.clock.Now())
	rl.tokens -= int64(n)
	if rl.tokens < 0 {
		d := time.Duration(-rl.tokens) * rl.interval
		rl.clock.Sleep(d)
		rl.slept += d
		rl.refill(rl.clock.Now())
	}
}

// Slept returns the cumulative time this limiter has spent sleeping for
// pacing — the scanner's scanner_rate_sleep_ns_total source. Like WaitN it
// is single-caller state.
func (rl *RateLimiter) Slept() time.Duration { return rl.slept }

func (rl *RateLimiter) refill(now time.Time) {
	elapsed := now.Sub(rl.last)
	if elapsed <= 0 {
		return
	}
	n := int64(elapsed / rl.interval)
	if n > 0 {
		rl.tokens += n
		if rl.tokens > rl.burst {
			rl.tokens = rl.burst
		}
		rl.last = rl.last.Add(time.Duration(n) * rl.interval)
	}
}
