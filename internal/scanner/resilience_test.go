package scanner_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// transientErr is a retryable transport failure.
type transientErr struct{ msg string }

func (e *transientErr) Error() string   { return e.msg }
func (e *transientErr) Transient() bool { return true }

// flakySender fails the first sendFails write attempts to each address with
// a transient error, then forwards to the inner transport.
type flakySender struct {
	inner     scanner.Transport
	sendFails int
	tries     map[netmodel.Addr]int
}

func (f *flakySender) LocalAddr() netmodel.Addr { return f.inner.LocalAddr() }
func (f *flakySender) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	return f.inner.ReadPacket(wait)
}
func (f *flakySender) WritePacket(b []byte) error {
	dst := netmodel.AddrFromBytes([4]byte(b[16:20]))
	if f.tries[dst] < f.sendFails {
		f.tries[dst]++
		return &transientErr{"injected send failure"}
	}
	return f.inner.WritePacket(b)
}

// deadSender fails every write with a transient error; reads pass through.
type deadSender struct{ inner scanner.Transport }

func (d *deadSender) LocalAddr() netmodel.Addr { return d.inner.LocalAddr() }
func (d *deadSender) WritePacket([]byte) error { return &transientErr{"injected send failure"} }
func (d *deadSender) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	return d.inner.ReadPacket(wait)
}

// deadReceiver answers sends normally but fails every read with err.
type deadReceiver struct {
	inner scanner.Transport
	err   error
}

func (d *deadReceiver) LocalAddr() netmodel.Addr { return d.inner.LocalAddr() }
func (d *deadReceiver) WritePacket(b []byte) error {
	return d.inner.WritePacket(b)
}
func (d *deadReceiver) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	// Keep virtual time moving so the cooldown terminates.
	if wait > 0 {
		if c, ok := d.inner.(scanner.Clock); ok {
			c.Sleep(wait)
		}
	}
	return nil, time.Time{}, d.err
}

// notNow advertises the method and answers no.
type notNow struct{}

func (notNow) Error() string   { return "not now" }
func (notNow) Transient() bool { return false }

// IsTransient asks an unwrapped error directly and a wrapped one through
// errors.As; the verdict is errors.As's own in every case.
func TestIsTransientVerdicts(t *testing.T) {
	tr := &transientErr{"flaky"}
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{tr, true},
		{fmt.Errorf("send: %w", tr), true},
		{fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", tr)), true},
		{errors.Join(errors.New("plain"), tr), true},
		{notNow{}, false},
		{fmt.Errorf("send: %w", notNow{}), false},
		{fmt.Errorf("send: %v", tr), false}, // flattened to text: the method is gone
		{scanner.ErrTimeout, false},
	} {
		var viaAs interface{ Transient() bool }
		if want := errors.As(tc.err, &viaAs) && viaAs.Transient(); want != tc.want {
			t.Fatalf("%v: the table says %v, errors.As %v", tc.err, tc.want, want)
		}
		if got := scanner.IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetryRecoversTransientSendErrors(t *testing.T) {
	ts := newTargets(t, "10.8.0.0/24")
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
	flaky := &flakySender{inner: net, sendFails: 2, tries: make(map[netmodel.Addr]int)}
	sc := scanner.New(flaky, scanner.Config{
		Rate: 0, Seed: 9, Epoch: 1, Clock: net, Cooldown: 500 * time.Millisecond,
	})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Partial {
		t.Error("round with recovered sends must not be partial")
	}
	if rd.Stats.Valid != 128 {
		t.Errorf("Valid = %d, want 128", rd.Stats.Valid)
	}
	if rd.Stats.Retries != 2*256 {
		t.Errorf("Retries = %d, want %d", rd.Stats.Retries, 2*256)
	}
	if rd.Stats.SendErrors != 0 {
		t.Errorf("SendErrors = %d, want 0 (all recovered)", rd.Stats.SendErrors)
	}
	if got := rd.Coverage(); got != 1 {
		t.Errorf("Coverage = %v, want 1", got)
	}
}

func TestErrorBudgetSalvagesPartialRound(t *testing.T) {
	ts := newTargets(t, "10.9.0.0/23") // 512 targets
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
	sc := scanner.New(&deadSender{inner: net}, scanner.Config{
		Rate: 0, Seed: 10, Epoch: 1, Clock: net,
		Cooldown: 100 * time.Millisecond, ErrorBudget: 0.05,
	})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatalf("budget exhaustion must salvage, not error: %v", err)
	}
	if !rd.Partial {
		t.Error("round not marked partial")
	}
	if rd.Stats.SendErrors == 0 {
		t.Error("send errors not counted")
	}
	// Budget is 5% of 512 = 25 failed addresses before the abort.
	if rd.Stats.SendErrors > 30 {
		t.Errorf("round not abandoned at the budget: %d send errors", rd.Stats.SendErrors)
	}
	if cov := rd.Coverage(); cov != 0 {
		t.Errorf("Coverage = %v, want 0 (nothing got through)", cov)
	}
	if rd.Err == nil {
		t.Error("last transport error not surfaced")
	}
}

func TestHardSendErrorsSkippedNotFatal(t *testing.T) {
	// Non-transient write errors skip the address (no retries) and count
	// toward the budget instead of aborting the whole round.
	ts := newTargets(t, "10.10.0.0/24")
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
	hard := errors.New("hard send failure")
	n := 0
	tr := &funcTransport{
		inner: net,
		write: func(inner scanner.Transport, b []byte) error {
			n++
			if n%8 == 0 {
				return hard
			}
			return inner.WritePacket(b)
		},
	}
	bus := obs.NewBus(0)
	sc := scanner.New(tr, scanner.Config{
		Rate: 0, Seed: 11, Epoch: 1, Clock: net, Cooldown: 500 * time.Millisecond,
		ErrorBudget: 0.5, Events: bus,
	})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatalf("hard send errors within budget must not abort: %v", err)
	}
	// A probe abandoned without a retry is still a failed send its batch
	// reports: four batches of 64, eight hard failures each.
	checkRetryEvents(t, bus, rd, 4)
	if !rd.Partial {
		t.Error("skipped addresses must mark the round partial")
	}
	if rd.Stats.SendErrors != 32 {
		t.Errorf("SendErrors = %d, want 32", rd.Stats.SendErrors)
	}
	if rd.Stats.Retries != 0 {
		t.Errorf("hard errors must not be retried; Retries = %d", rd.Stats.Retries)
	}
	if rd.Probed != 256-32 {
		t.Errorf("Probed = %d, want %d", rd.Probed, 256-32)
	}
}

// funcTransport lets a test intercept writes.
type funcTransport struct {
	inner scanner.Transport
	write func(inner scanner.Transport, b []byte) error
}

func (f *funcTransport) LocalAddr() netmodel.Addr { return f.inner.LocalAddr() }
func (f *funcTransport) WritePacket(b []byte) error {
	return f.write(f.inner, b)
}
func (f *funcTransport) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	return f.inner.ReadPacket(wait)
}

func TestDeadReceivePathSurfaces(t *testing.T) {
	ts := newTargets(t, "10.11.0.0/24")
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
	dead := &deadReceiver{inner: net, err: &transientErr{"injected recv failure"}}
	sc := scanner.New(dead, scanner.Config{
		Rate: 0, Seed: 12, Epoch: 1, Clock: net,
		Cooldown: 500 * time.Millisecond, MaxRecvErrors: 8,
	})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.RecvDead || !rd.Partial {
		t.Errorf("dead receive path not flagged: RecvDead=%v Partial=%v", rd.RecvDead, rd.Partial)
	}
	if rd.Stats.RecvErrors == 0 {
		t.Error("receive errors not counted")
	}
	if rd.Err == nil {
		t.Error("receive error not surfaced in RoundData.Err")
	}
	if rd.Stats.Valid != 0 {
		t.Errorf("Valid = %d through a dead receive path", rd.Stats.Valid)
	}
}

func TestNonTransientRecvErrorKillsImmediately(t *testing.T) {
	ts := newTargets(t, "10.12.0.0/24")
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
	dead := &deadReceiver{inner: net, err: errors.New("use of closed connection")}
	sc := scanner.New(dead, scanner.Config{
		Rate: 0, Seed: 13, Epoch: 1, Clock: net, Cooldown: 500 * time.Millisecond,
	})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.RecvDead {
		t.Error("non-transient receive error must kill the path")
	}
	if rd.Stats.RecvErrors != 1 {
		t.Errorf("RecvErrors = %d, want 1 (immediate death)", rd.Stats.RecvErrors)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ts := newTargets(t, "10.13.0.0/22") // 1024 targets
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the round must return immediately
	sc := scanner.New(net, scanner.Config{Rate: 0, Seed: 14, Epoch: 1, Clock: net})
	rd, err := sc.RunContext(ctx, ts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rd == nil || !rd.Partial {
		t.Fatal("canceled round must still return partial data")
	}
	if rd.Probed != 0 {
		t.Errorf("Probed = %d before first send of a canceled round", rd.Probed)
	}
}

func TestStopAbortsWedgedTransport(t *testing.T) {
	// A transport that always fails sends with transient errors would retry
	// forever round after round; cancelling its context from another
	// goroutine must cut it short.
	ts := newTargets(t, "10.14.0.0/20") // 4096 targets
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
	sc := scanner.New(&deadSender{inner: net}, scanner.Config{
		Rate: 0, Seed: 15, Epoch: 1, Clock: net, ErrorBudget: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var rd *scanner.RoundData
	var err error
	go func() {
		rd, err = sc.RunContext(ctx, ts)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not abort the round")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if rd == nil || !rd.Partial {
		t.Error("stopped round must return partial data")
	}
}

func TestShardCoverageDenominator(t *testing.T) {
	ts := newTargets(t, "10.15.0.0/23") // 512 targets
	var total int
	for shard := 0; shard < 3; shard++ {
		net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
		sc := scanner.New(net, scanner.Config{
			Rate: 0, Seed: 16, Epoch: 1, Clock: net, Cooldown: 200 * time.Millisecond,
			Shard: shard, Shards: 3,
		})
		rd, err := sc.Run(ts)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Partial {
			t.Errorf("shard %d: clean scan marked partial", shard)
		}
		if rd.Coverage() != 1 {
			t.Errorf("shard %d: coverage %v (probed %d of %d)", shard, rd.Coverage(), rd.Probed, rd.ShardTargets)
		}
		total += rd.ShardTargets
	}
	if total != 512 {
		t.Errorf("shard targets sum to %d, want 512", total)
	}
}
