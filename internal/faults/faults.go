// Package faults wraps a scanner.Transport with deterministic fault
// injection, so the resilience of the measurement pipeline can be exercised
// in tests, benchmarks and the CLIs without a misbehaving network at hand.
//
// Two fault classes compose:
//
//   - Scripted windows: absolute time ranges during which the vantage point
//     is blacked out (sends fail, replies vanish), the receive path errors,
//     sends fail transiently, reads stall, or connectivity flaps with a
//     period. Windows model the paper's vantage-point outages (§3.1).
//   - Probabilistic noise: per-packet transient send errors, silent probe
//     drops and reply truncation, drawn from a seeded deterministic RNG so
//     a faulty run is exactly reproducible.
//
// Injected errors implement `Transient() bool`, which the scanner's retry
// and error-budget machinery keys on; the wrapper forwards the underlying
// clock, so it can stand in wherever the wrapped transport did.
package faults

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
)

// Kind is the behaviour of a scripted fault window.
type Kind uint8

const (
	// Blackout takes the vantage offline: sends fail transiently and the
	// receive path is silent (reads time out).
	Blackout Kind = iota
	// SendErrors fails every send transiently; the receive path still
	// delivers replies to probes that got out earlier.
	SendErrors
	// RecvErrors fails every read with a transient receive error.
	RecvErrors
	// Stall makes reads consume their whole wait budget and return
	// nothing, emulating a wedged receive path.
	Stall
	// Flap alternates Blackout on/off every Period within the window.
	Flap
)

var kindNames = map[Kind]string{
	Blackout: "blackout", SendErrors: "senderr-window", RecvErrors: "recverr",
	Stall: "stall", Flap: "flap",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", k)
}

// Window is one scripted fault interval [From, To).
type Window struct {
	From, To time.Time
	Kind     Kind
	// Period is the Flap on/off half-cycle (ignored for other kinds).
	Period time.Duration
}

// active reports whether the window's fault applies at t.
func (w Window) active(t time.Time) bool {
	if t.Before(w.From) || !t.Before(w.To) {
		return false
	}
	if w.Kind == Flap && w.Period > 0 {
		return (t.Sub(w.From)/w.Period)%2 == 0
	}
	return true
}

// Profile is a complete fault specification.
type Profile struct {
	// Seed drives the probabilistic faults deterministically.
	Seed uint64
	// SendErrorProb fails a send with a transient error.
	SendErrorProb float64
	// DropProb silently discards a probe (the send "succeeds").
	DropProb float64
	// TruncateProb truncates a delivered reply to half its length,
	// which the scanner must reject as invalid rather than crash on.
	TruncateProb float64
	// Windows are the scripted fault intervals.
	Windows []Window
}

// Counters tallies injected faults (for assertions and CLI reporting).
type Counters struct {
	SendErrors uint64 // failed sends (windows + probability)
	Drops      uint64 // silently discarded probes
	RecvErrors uint64 // injected read errors
	Truncated  uint64 // truncated replies
	Blackouts  uint64 // reads swallowed by blackout/stall windows
}

// Err is an injected fault error. It reports itself transient so the
// scanner's retry/budget machinery treats it like a real flaky network.
type Err struct{ Op string }

// errSend and errRecv are the two errors the transport injects, shared and
// never written: a blacked-out round retries thousands of sends, and each
// retry asks for the error and its text.
var (
	errSend = &Err{Op: "send"}
	errRecv = &Err{Op: "recv"}
)

func (e *Err) Error() string {
	switch e.Op {
	case "send":
		return "faults: injected send error"
	case "recv":
		return "faults: injected recv error"
	}
	return "faults: injected " + e.Op + " error"
}
func (e *Err) Transient() bool { return true }

// Transport wraps an inner scanner.Transport with fault injection. It also
// implements scanner.Clock by delegation, so it can replace a clock-bearing
// transport (like simnet.Network) wholesale, and scanner.BatchTransport so
// batched engines keep per-packet fault semantics: every packet in a batch
// rolls the same dice, in the same order, as it would packet-at-a-time.
type Transport struct {
	inner scanner.Transport
	clock scanner.Clock
	prof  Profile

	batchOnce sync.Once
	batch     scanner.BatchTransport // batched view of inner, built lazily

	mu      sync.Mutex
	rng     uint64
	cnt     Counters
	verdict windowVerdict // windowAt's memo

	// metrics shadows cnt onto a registry (see Observe); never nil.
	metrics *Metrics
}

// NewTransport wraps inner with the given profile. When clock is nil, the
// inner transport is used if it implements scanner.Clock, else the wall
// clock; fault windows are evaluated against this clock.
func NewTransport(inner scanner.Transport, clock scanner.Clock, prof Profile) *Transport {
	if clock == nil {
		if c, ok := inner.(scanner.Clock); ok {
			clock = c
		} else {
			clock = scanner.RealClock{}
		}
	}
	return &Transport{inner: inner, clock: clock, prof: prof, rng: firstRNG(prof), metrics: &Metrics{}}
}

// firstRNG is the RNG state a wrapper of prof starts every scan at.
func firstRNG(prof Profile) uint64 { return netmodel.Mix64(prof.Seed ^ 0xfa17) }

// Close implements io.Closer by delegation (a no-op when the inner transport
// has nothing to close), so a wrapped transport is released like its inner
// transport would be.
func (t *Transport) Close() error {
	if c, ok := t.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Rearm implements scanner.Rearmer: it re-arms the inner transport and then
// restarts the RNG at the profile's seed and forgets the window memo, so the
// next scan draws what a fresh wrapper's would. The Counters and metrics keep
// counting. It reports false, changing nothing of its own, when the inner
// transport cannot re-arm.
func (t *Transport) Rearm(at time.Time) bool {
	if r, ok := t.inner.(scanner.Rearmer); !ok || !r.Rearm(at) {
		return false
	}
	t.mu.Lock()
	t.rng, t.verdict = firstRNG(t.prof), windowVerdict{}
	t.mu.Unlock()
	return true
}

// Counters returns a snapshot of the injected-fault tallies.
func (t *Transport) Counters() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cnt
}

// LocalAddr implements scanner.Transport.
func (t *Transport) LocalAddr() netmodel.Addr { return t.inner.LocalAddr() }

// Now implements scanner.Clock by delegation.
func (t *Transport) Now() time.Time { return t.clock.Now() }

// Sleep implements scanner.Clock by delegation.
func (t *Transport) Sleep(d time.Duration) { t.clock.Sleep(d) }

// windowAt returns the first active scripted window at time now. The answer
// can change only at a window's From or To or at a flap flip, so it is kept
// together with the span between the nearest such edge on either side of now
// and the window list is walked once per span, not once per packet. Callers
// hold t.mu.
func (t *Transport) windowAt(now time.Time) (Window, bool) {
	if v := &t.verdict; (v.openFrom || !now.Before(v.from)) && (v.openUntil || now.Before(v.until)) {
		return v.win, v.ok
	}
	v := windowVerdict{openFrom: true, openUntil: true}
	edge := func(e time.Time) {
		if e.After(now) {
			if v.openUntil || e.Before(v.until) {
				v.until, v.openUntil = e, false
			}
		} else if v.openFrom || e.After(v.from) {
			v.from, v.openFrom = e, false
		}
	}
	for _, w := range t.prof.Windows {
		edge(w.From)
		edge(w.To)
		if w.Kind == Flap && w.Period > 0 && !now.Before(w.From) && now.Before(w.To) {
			k := now.Sub(w.From) / w.Period
			edge(w.From.Add(k * w.Period))
			if next := (k + 1) * w.Period; next > 0 { // else past Duration's range: To bounds the span
				edge(w.From.Add(next))
			}
		}
		if !v.ok && w.active(now) {
			v.win, v.ok = w, true
		}
	}
	t.verdict = v
	return v.win, v.ok
}

// windowVerdict is windowAt's last answer and the span [from, until) of clock
// readings it holds for; a side with no edge is open. The zero value spans
// nothing, so the first call walks the list.
type windowVerdict struct {
	win                 Window
	ok                  bool
	from, until         time.Time
	openFrom, openUntil bool
}

// roll draws a deterministic Bernoulli sample.
func (t *Transport) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	t.rng = netmodel.Mix64(t.rng)
	return float64(t.rng>>11)/(1<<53) < p
}

// WritePacket implements scanner.Transport with injected send faults: the
// one-packet case of WriteBatch.
func (t *Transport) WritePacket(b []byte) error {
	_, err := t.WriteBatch([][]byte{b})
	return err
}

// failsSends reports whether sends fail under a window of kind k. Stall is
// deliberately absent: a wedged receive path lets every send "succeed", which
// is exactly what makes it poisonous — the scan completes with full coverage
// and zero replies.
func failsSends(k Kind) bool { return k == Blackout || k == SendErrors || k == Flap }

// WriteBatch implements scanner.BatchTransport with injected send faults,
// deciding once per batch what can only change between batches and per packet
// what is drawn per packet. The scripted windows are evaluated once, at the
// instant the call starts — the instant the engine stamped into every probe
// of the batch: under a send-failing window the first packet fails and
// nothing is written. Otherwise each packet rolls the dice in batch order
// (send-error roll, then drop roll) and every maximal run of surviving
// packets goes to the inner transport in one WriteBatch; a drop splits a run,
// a send-error roll ends the call. A fault is counted only once the run
// before it is out, t.mu is not held across the inner write, and when the
// inner transport writes short the RNG is wound back to where the failing
// packet's own rolls left it — so the RNG stream, the counters, the packets
// the inner transport sees and every (n, err) are those of WritePacket called
// in a loop, for every profile.
//
// On a clock that cannot move inside a write (simnet's) that is the whole
// story. On a real clock (cmd/fbscan -faults) a window edge that falls inside
// a batch takes effect at the next batch: at most one batch of packets late,
// 64 packets or 8 ms at 8 000 pps.
func (t *Transport) WriteBatch(pkts [][]byte) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	now := t.clock.Now()
	t.mu.Lock()
	if w, ok := t.windowAt(now); ok && failsSends(w.Kind) {
		t.cnt.SendErrors++
		t.metrics.SendErrors.Inc()
		t.mu.Unlock()
		return 0, errSend
	}
	for start := 0; ; {
		// Roll ahead to the end of the run: the first packet that fails or
		// is dropped, or the end of the batch.
		runRNG := t.rng
		end, sendErr := start, false
		for ; end < len(pkts); end++ {
			if sendErr = t.roll(t.prof.SendErrorProb); sendErr || t.roll(t.prof.DropProb) {
				break
			}
		}
		t.mu.Unlock()
		if end > start {
			if n, err := t.batchInner().WriteBatch(pkts[start:end]); n < end-start {
				// Packet start+n failed below: the packets after it were
				// never attempted, so their rolls are undrawn by replaying
				// the n+1 that were.
				t.mu.Lock()
				t.rng = runRNG
				for i := 0; i <= n; i++ {
					t.roll(t.prof.SendErrorProb)
					t.roll(t.prof.DropProb)
				}
				t.mu.Unlock()
				return start + n, err
			}
		}
		if end == len(pkts) {
			return end, nil
		}
		t.mu.Lock()
		if sendErr {
			t.cnt.SendErrors++
			t.metrics.SendErrors.Inc()
			t.mu.Unlock()
			return end, errSend
		}
		t.cnt.Drops++
		t.metrics.Drops.Inc()
		start = end + 1
	}
}

// recvGate applies the window scripted for this instant to a read of either
// shape. During a blackout, stall or dark flap half-cycle the read is
// silenced: nothing is delivered and the wait is consumed, so virtual clocks
// keep moving and real callers don't spin. Inside a RecvErrors window it
// returns the injected receive error.
func (t *Transport) recvGate(wait time.Duration) (silenced bool, err error) {
	now := t.clock.Now()
	t.mu.Lock()
	if w, ok := t.windowAt(now); ok {
		switch w.Kind {
		case Blackout, Stall, Flap:
			t.cnt.Blackouts++
			t.metrics.Blackouts.Inc()
			t.mu.Unlock()
			if wait > 0 {
				t.clock.Sleep(wait)
			}
			return true, nil
		case RecvErrors:
			t.cnt.RecvErrors++
			t.metrics.RecvErrors.Inc()
			t.mu.Unlock()
			return false, errRecv
		}
	}
	t.mu.Unlock()
	return false, nil
}

// ReadPacket implements scanner.Transport with injected receive faults.
func (t *Transport) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	if silenced, err := t.recvGate(wait); silenced {
		return nil, time.Time{}, scanner.ErrTimeout
	} else if err != nil {
		return nil, time.Time{}, err
	}
	pkt, at, err := t.inner.ReadPacket(wait)
	if err == nil && len(pkt) > 0 {
		t.mu.Lock()
		trunc := t.roll(t.prof.TruncateProb)
		if trunc {
			t.cnt.Truncated++
			t.metrics.Truncated.Inc()
		}
		t.mu.Unlock()
		if trunc {
			pkt = pkt[:len(pkt)/2]
		}
	}
	return pkt, at, err
}

// batchInner returns the batched view of the inner transport (built once).
func (t *Transport) batchInner() scanner.BatchTransport {
	t.batchOnce.Do(func() { t.batch = scanner.AsBatch(t.inner) })
	return t.batch
}

// ReadBatch implements scanner.BatchTransport. Scripted windows gate the
// whole call — during a blackout or stall nothing is delivered and the wait
// is consumed, matching the serial path — while reply truncation rolls once
// per delivered packet in delivery order, keeping the RNG stream aligned
// with packet-at-a-time reads.
func (t *Transport) ReadBatch(pkts [][]byte, ats []time.Time, wait time.Duration) (int, error) {
	if silenced, err := t.recvGate(wait); silenced || err != nil {
		return 0, err
	}
	n, err := t.batchInner().ReadBatch(pkts, ats, wait)
	if n > 0 {
		t.mu.Lock()
		for i := 0; i < n; i++ {
			if len(pkts[i]) > 0 && t.roll(t.prof.TruncateProb) {
				t.cnt.Truncated++
				t.metrics.Truncated.Inc()
				pkts[i] = pkts[i][:len(pkts[i])/2]
			}
		}
		t.mu.Unlock()
	}
	return n, err
}

// ParseProfile parses a comma-separated fault specification. Offsets and
// durations are Go durations relative to base (the campaign start):
//
//	seed=7                  RNG seed for the probabilistic faults
//	senderr=0.01            transient send-error probability
//	drop=0.005              silent probe-drop probability
//	trunc=0.01              reply-truncation probability
//	blackout=24h+8h         vantage offline from base+24h for 8h
//	stall=100h+2h           reads wedge from base+100h for 2h
//	recverr=30m+10m         receive path errors from base+30m for 10m
//	senderrwin=1h+30m       sends fail from base+1h for 30m
//	flap=48h+12h/30m        connectivity flaps for 12h with 30m half-cycle
//
// Example: "seed=7,senderr=0.01,blackout=60h+4h".
//
// Windows of the same kind must not overlap (the first active window wins
// at runtime, so an overlap silently shadows part of the spec); overlapping
// specs are rejected.
func ParseProfile(spec string, base time.Time) (Profile, error) {
	p := Profile{Seed: 1}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	kinds := map[string]Kind{
		"blackout": Blackout, "stall": Stall, "recverr": RecvErrors,
		"senderrwin": SendErrors, "flap": Flap,
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return p, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return p, fmt.Errorf("faults: bad seed %q", val)
			}
			p.Seed = n
		case "senderr", "drop", "trunc":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return p, fmt.Errorf("faults: bad probability %q for %s", val, key)
			}
			switch key {
			case "senderr":
				p.SendErrorProb = f
			case "drop":
				p.DropProb = f
			case "trunc":
				p.TruncateProb = f
			}
		default:
			kind, ok := kinds[key]
			if !ok {
				return p, fmt.Errorf("faults: unknown fault %q", key)
			}
			w, err := parseWindow(val, base, kind)
			if err != nil {
				return p, err
			}
			p.Windows = append(p.Windows, w)
		}
	}
	sort.SliceStable(p.Windows, func(i, j int) bool { return p.Windows[i].From.Before(p.Windows[j].From) })
	// Overlapping windows of the same kind are almost always a typo in the
	// spec (the first active window wins at runtime, silently shadowing the
	// second), so reject them outright.
	for i := 1; i < len(p.Windows); i++ {
		for j := 0; j < i; j++ {
			a, b := p.Windows[j], p.Windows[i]
			if a.Kind == b.Kind && b.From.Before(a.To) && a.From.Before(b.To) {
				return p, fmt.Errorf("faults: overlapping %s windows [%s, %s) and [%s, %s)",
					a.Kind, a.From.Sub(base), a.To.Sub(base), b.From.Sub(base), b.To.Sub(base))
			}
		}
	}
	return p, nil
}

// parseWindow parses "offset+duration" or "offset+duration/period".
func parseWindow(val string, base time.Time, kind Kind) (Window, error) {
	var period time.Duration
	if kind == Flap {
		body, per, ok := strings.Cut(val, "/")
		if !ok {
			return Window{}, fmt.Errorf("faults: flap window %q needs offset+dur/period", val)
		}
		d, err := time.ParseDuration(strings.TrimSpace(per))
		if err != nil || d <= 0 {
			return Window{}, fmt.Errorf("faults: bad flap period %q", per)
		}
		period, val = d, body
	}
	offStr, durStr, ok := strings.Cut(val, "+")
	if !ok {
		return Window{}, fmt.Errorf("faults: window %q is not offset+duration", val)
	}
	off, err := time.ParseDuration(strings.TrimSpace(offStr))
	if err != nil {
		return Window{}, fmt.Errorf("faults: bad window offset %q", offStr)
	}
	dur, err := time.ParseDuration(strings.TrimSpace(durStr))
	if err != nil || dur <= 0 {
		return Window{}, fmt.Errorf("faults: bad window duration %q", durStr)
	}
	from := base.Add(off)
	return Window{From: from, To: from.Add(dur), Kind: kind, Period: period}, nil
}
