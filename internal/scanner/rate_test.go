package scanner

import (
	"testing"
	"time"
)

// fakeClock is a manual virtual clock for limiter tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestRateLimiterPacing(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	var rl RateLimiter
	rl.reset(clock, 1000, 1) // 1ms per packet, burst 1
	start := clock.Now()
	for i := 0; i < 100; i++ {
		rl.WaitN(1)
	}
	elapsed := clock.Now().Sub(start)
	// First packet free (burst 1), the other 99 need 1ms each.
	if elapsed < 98*time.Millisecond || elapsed > 101*time.Millisecond {
		t.Errorf("100 packets took %v of virtual time, want ≈99ms", elapsed)
	}
}

func TestRateLimiterWaitN(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	var rl RateLimiter
	rl.reset(clock, 1000, 1) // 1ms per token, burst 1
	rl.WaitN(64)             // 1 token banked, 63 owed
	if got := clock.now.Sub(time.Unix(0, 0)); got != 63*time.Millisecond {
		t.Fatalf("WaitN(64) advanced %v, want 63ms", got)
	}
	rl.WaitN(64) // fully in debt now: 64 more tokens
	if got := clock.now.Sub(time.Unix(0, 0)); got != 127*time.Millisecond {
		t.Fatalf("second WaitN(64) advanced to %v, want 127ms", got)
	}
}

func TestRateLimiterBurst(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	var rl RateLimiter
	rl.reset(clock, 1000, 64)
	start := clock.Now()
	for i := 0; i < 64; i++ {
		rl.WaitN(1)
	}
	if got := clock.Now().Sub(start); got != 0 {
		t.Errorf("burst of 64 consumed %v of virtual time, want 0", got)
	}
	rl.WaitN(1) // 65th must wait
	if got := clock.Now().Sub(start); got == 0 {
		t.Error("post-burst packet did not wait")
	}
}

func TestRateLimiterRefillAfterIdle(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	var rl RateLimiter
	rl.reset(clock, 1000, 10)
	for i := 0; i < 10; i++ {
		rl.WaitN(1)
	}
	// Idle long enough to refill well past the burst cap.
	clock.Sleep(time.Second)
	start := clock.Now()
	for i := 0; i < 10; i++ {
		rl.WaitN(1)
	}
	if got := clock.Now().Sub(start); got != 0 {
		t.Errorf("refilled burst consumed %v, want 0 (cap respected but full)", got)
	}
	// Burst cap: an 11th immediate packet must wait.
	rl.WaitN(1)
	if got := clock.Now().Sub(start); got == 0 {
		t.Error("token bucket exceeded burst cap after idle")
	}
}

func TestRateLimiterUnlimited(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	var rl RateLimiter
	rl.reset(clock, 0, 1)
	start := clock.Now()
	for i := 0; i < 10000; i++ {
		rl.WaitN(1)
	}
	if got := clock.Now().Sub(start); got != 0 {
		t.Errorf("unlimited limiter consumed %v", got)
	}
}

func TestRateLimiterAggregateRate(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	const rate = 8000
	var rl RateLimiter
	rl.reset(clock, rate, 64)
	const packets = 40000
	start := clock.Now()
	for i := 0; i < packets; i++ {
		rl.WaitN(1)
	}
	elapsed := clock.Now().Sub(start).Seconds()
	got := float64(packets) / elapsed
	if got < rate*0.98 || got > rate*1.05 {
		t.Errorf("aggregate rate %.0f pps, want ≈%d", got, rate)
	}
}
