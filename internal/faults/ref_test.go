package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// refTransport is a Transport whose send side is the packet-at-a-time code
// the native WriteBatch replaced, kept verbatim as its reference: WritePacket
// reads the clock, takes the lock and consults the windows per packet, and
// WriteBatch loops it. Everything else (reads, clock, counters, RNG) is the
// embedded Transport's own.
type refTransport struct{ *Transport }

func (r refTransport) WritePacket(b []byte) error {
	t := r.Transport
	now := t.clock.Now()
	t.mu.Lock()
	if w, ok := t.windowAt(now); ok {
		switch w.Kind {
		case Blackout, SendErrors, Flap:
			t.cnt.SendErrors++
			t.metrics.SendErrors.Inc()
			t.mu.Unlock()
			return &Err{Op: "send"}
		}
	}
	if t.roll(t.prof.SendErrorProb) {
		t.cnt.SendErrors++
		t.metrics.SendErrors.Inc()
		t.mu.Unlock()
		return &Err{Op: "send"}
	}
	if t.roll(t.prof.DropProb) {
		t.cnt.Drops++
		t.metrics.Drops.Inc()
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
	return t.inner.WritePacket(b)
}

func (r refTransport) WriteBatch(pkts [][]byte) (int, error) {
	for i, b := range pkts {
		if err := r.WritePacket(b); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// testClock is a clock that moves only when told to.
type testClock struct{ now time.Time }

func (c *testClock) Now() time.Time        { return c.now }
func (c *testClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// Inner-transport failures: one the engine retries, one it does not.
type innerErr struct{ transient bool }

func (e *innerErr) Error() string   { return fmt.Sprintf("inner failure (transient=%v)", e.transient) }
func (e *innerErr) Transient() bool { return e.transient }

var errInnerTransient, errInnerHard = &innerErr{true}, &innerErr{false}

// recInner is a packet-at-a-time inner transport that records every write
// attempt in order, fails the attempts its schedule names, and echoes each
// packet that got through back to the reader.
type recInner struct {
	fail     map[int]error // write attempt number → its error
	attempts int
	log      []string
	echo     [][]byte
}

func (r *recInner) LocalAddr() netmodel.Addr { return 1 }

func (r *recInner) WritePacket(b []byte) error {
	err := r.fail[r.attempts]
	r.attempts++
	r.log = append(r.log, fmt.Sprintf("%x: %v", b, err))
	if err == nil {
		r.echo = append(r.echo, append([]byte(nil), b...))
	}
	return err
}

func (r *recInner) ReadPacket(time.Duration) ([]byte, time.Time, error) {
	if len(r.echo) == 0 {
		return nil, time.Time{}, scanner.ErrTimeout
	}
	pkt := r.echo[0]
	r.echo = r.echo[1:]
	return pkt, time.Time{}, nil
}

// world is one transport under test with everything it can be observed by.
type world struct {
	clock *testClock
	inner *recInner
	tr    *Transport
	bt    scanner.BatchTransport // tr itself, or its packet-at-a-time reference
	m     *Metrics
	log   []string // every call's outcome, in order
}

func newWorld(prof Profile, start time.Time, fail map[int]error, reference bool) *world {
	w := &world{clock: &testClock{now: start}, inner: &recInner{fail: fail}, m: NewMetrics(obs.NewRegistry())}
	w.tr = NewTransport(w.inner, w.clock, prof)
	w.tr.Observe(w.m)
	w.bt = w.tr
	if reference {
		w.bt = refTransport{w.tr}
	}
	return w
}

// errText renders an error so that an injected fault compares equal to a
// fresh one of the same Op, and an inner failure only to itself.
func errText(err error) string {
	var fe *Err
	if errors.As(err, &fe) {
		return "injected " + fe.Op
	}
	return fmt.Sprintf("%p %v", err, err)
}

// submit writes one batch the way roundRun.writeBatch does: the unsent tail
// is resubmitted after a transient failure, up to three times per packet with
// the clock moved on by step in between, and a packet that is out of retries
// or failed hard is abandoned. Then it drains the replies, as the engine does
// between batches, so truncation rolls interleave with the send-side ones.
func (w *world) submit(pkts [][]byte, step time.Duration) {
	for i, attempt := 0, 0; i < len(pkts); {
		n, err := w.bt.WriteBatch(pkts[i:])
		w.log = append(w.log, fmt.Sprintf("write %d of %d: %d, %s", len(pkts)-i, len(pkts), n, errText(err)))
		i += n
		if err == nil {
			break
		}
		if n > 0 {
			attempt = 0
		}
		if attempt < 3 && scanner.IsTransient(err) {
			attempt++
			w.clock.Sleep(step)
			continue
		}
		i, attempt = i+1, 0
	}
	bufs, ats := make([][]byte, 16), make([]time.Time, 16)
	for {
		n, err := w.bt.ReadBatch(bufs, ats, 0)
		w.log = append(w.log, fmt.Sprintf("read: %d, %s %x", n, errText(err), bufs[:n]))
		if n == 0 {
			break
		}
	}
}

// sameAs holds w to the reference: every (n, err) and every read, the packets
// that reached the inner transport and what became of each, the counters, the
// registry's view of them, and the RNG afterwards.
func (w *world) sameAs(t *testing.T, ref *world, desc string) {
	t.Helper()
	if !reflect.DeepEqual(w.log, ref.log) {
		t.Fatalf("%s: calls differ\nbatch:     %q\nreference: %q", desc, w.log, ref.log)
	}
	if !reflect.DeepEqual(w.inner.log, ref.inner.log) {
		t.Fatalf("%s: inner transport saw\nbatch:     %q\nreference: %q", desc, w.inner.log, ref.inner.log)
	}
	if w.tr.Counters() != ref.tr.Counters() {
		t.Fatalf("%s: counters %+v, reference %+v", desc, w.tr.Counters(), ref.tr.Counters())
	}
	for name, pair := range map[string][2]*obs.Counter{
		"senderr": {w.m.SendErrors, ref.m.SendErrors}, "drop": {w.m.Drops, ref.m.Drops},
		"recverr": {w.m.RecvErrors, ref.m.RecvErrors}, "truncated": {w.m.Truncated, ref.m.Truncated},
		"blackout": {w.m.Blackouts, ref.m.Blackouts},
	} {
		if pair[0].Value() != pair[1].Value() {
			t.Fatalf("%s: faults_injected_total{kind=%q} = %d, reference %d", desc, name, pair[0].Value(), pair[1].Value())
		}
	}
	if w.tr.rng != ref.tr.rng {
		t.Fatalf("%s: RNG left at %#x, reference %#x", desc, w.tr.rng, ref.tr.rng)
	}
	if !w.clock.now.Equal(ref.clock.now) {
		t.Fatalf("%s: clock at %v, reference %v", desc, w.clock.now, ref.clock.now)
	}
}

// testPackets returns n distinct packets.
func testPackets(n int) [][]byte {
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = []byte{0xab, byte(i >> 8), byte(i)}
	}
	return pkts
}

// bothWays runs the same submissions through the native batch path and the
// packet-at-a-time reference and compares them after every one.
func bothWays(t *testing.T, desc string, prof Profile, start time.Time, fail map[int]error, step time.Duration, sizes ...int) {
	t.Helper()
	batch, ref := newWorld(prof, start, fail, false), newWorld(prof, start, fail, true)
	for i, n := range sizes {
		pkts := testPackets(n)
		batch.submit(pkts, step)
		ref.submit(pkts, step)
		batch.sameAs(t, ref, fmt.Sprintf("%s, submission %d (%d packets)", desc, i, n))
	}
}

var noiseProfiles = map[string]Profile{
	"no probabilities": {Seed: 1},
	"senderr":          {Seed: 2, SendErrorProb: 0.2},
	"drop":             {Seed: 3, DropProb: 0.2},
	"trunc":            {Seed: 4, TruncateProb: 0.5},
	"all three":        {Seed: 5, SendErrorProb: 0.15, DropProb: 0.2, TruncateProb: 0.3},
	"mostly faults":    {Seed: 6, SendErrorProb: 0.5, DropProb: 0.7},
	"certain senderr":  {Seed: 7, SendErrorProb: 1},
	"certain drop":     {Seed: 8, DropProb: 1},
}

func TestWriteBatchMatchesPacketLoop(t *testing.T) {
	start := windowBase
	for name, prof := range noiseProfiles {
		// Clean inner transport, then one failing at every position of the
		// first submission in turn — so at the first, at an inner and at the
		// last packet of whatever runs the dice cut it into — transiently
		// (retried), hard (abandoned), and three times over (retries spent).
		bothWays(t, name, prof, start, nil, time.Millisecond, 1, 2, 64, 65, 64)
		for _, size := range []int{1, 2, 64, 65} {
			for k := 0; k < size; k++ {
				desc := fmt.Sprintf("%s, attempt %d of %d", name, k, size)
				bothWays(t, desc+" fails transiently", prof, start, map[int]error{k: errInnerTransient}, time.Millisecond, size, size)
				bothWays(t, desc+" fails hard", prof, start, map[int]error{k: errInnerHard}, time.Millisecond, size, size)
				bothWays(t, desc+" fails four times", prof, start,
					map[int]error{k: errInnerTransient, k + 1: errInnerTransient, k + 2: errInnerTransient, k + 3: errInnerTransient},
					time.Millisecond, size, size)
			}
		}
	}
}

func TestWriteBatchMatchesPacketLoopAcrossWindowEdges(t *testing.T) {
	from, to, period := windowBase.Add(time.Hour), windowBase.Add(2*time.Hour), 7*time.Minute
	for kind := Blackout; kind <= Flap; kind++ {
		win := Window{From: from, To: to, Kind: kind, Period: period}
		for name, noise := range map[string]Profile{"windows only": {Seed: 1}, "with noise": noiseProfiles["all three"]} {
			prof := noise
			prof.Windows = []Window{win}
			// Start exactly on each edge and a nanosecond either side, and let
			// every retry move the clock a nanosecond on: submissions begin,
			// fail and are resubmitted on both sides of the edge.
			for _, edge := range []time.Time{from, to, from.Add(period), from.Add(2 * period)} {
				for d := -2 * time.Nanosecond; d <= time.Nanosecond; d++ {
					desc := fmt.Sprintf("%v window, %s, clock at edge %v%+d ns", kind, name, edge.Sub(windowBase), d)
					bothWays(t, desc, prof, edge.Add(d), nil, time.Nanosecond, 1, 2, 64, 65, 1, 64)
					bothWays(t, desc+", inner failing", prof, edge.Add(d),
						map[int]error{0: errInnerTransient, 5: errInnerHard, 70: errInnerTransient}, time.Nanosecond, 2, 64, 65)
				}
			}
		}
	}
}

// A whole scan over the simulated wire — batches native all the way down —
// under the end-to-end resilience test's profile (1 % send errors and a
// blackout the scan runs into and out of) gives the same round either way.
func TestFaultedScanMatchesPacketLoop(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{netmodel.MustParsePrefix("91.198.4.0/22")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile{Seed: 5, SendErrorProb: 0.01, DropProb: 0.02, TruncateProb: 0.02, Windows: []Window{
		{From: start.Add(40 * time.Millisecond), To: start.Add(55 * time.Millisecond), Kind: Blackout},
		{From: start.Add(90 * time.Millisecond), To: start.Add(100 * time.Millisecond), Kind: Stall},
	}}
	run := func(reference bool) (*scanner.RoundData, *Transport) {
		resp := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
			return simnet.Reply{Kind: simnet.EchoReply, RTT: time.Duration(1+dst%7) * time.Millisecond}
		})
		tr := NewTransport(simnet.New(netmodel.MustParseAddr("198.51.100.1"), resp, start), nil, prof)
		var bt scanner.Transport = tr
		if reference {
			bt = refTransport{tr}
		}
		// 8 000 pps: the 1 024 probes take 128 ms of virtual time.
		rd, err := scanner.New(bt, scanner.Config{Seed: 7, Epoch: 1, Clock: tr, Cooldown: 500 * time.Millisecond}).Run(ts)
		if err != nil {
			t.Fatal(err)
		}
		return rd, tr
	}
	got, gotTr := run(false)
	want, wantTr := run(true)
	if c := gotTr.Counters(); c.SendErrors == 0 || c.Drops == 0 || c.Truncated == 0 || c.Blackouts == 0 {
		t.Fatalf("the profile did not bite: %+v", c)
	}
	if got.Stats.Retries == 0 || got.Stats.Valid == 0 || got.Stats.Valid == 1024 {
		t.Fatalf("the round is not a faulted one: %+v", got.Stats)
	}
	if gotTr.Counters() != wantTr.Counters() || gotTr.rng != wantTr.rng {
		t.Fatalf("counters %+v rng %#x, reference %+v rng %#x", gotTr.Counters(), gotTr.rng, wantTr.Counters(), wantTr.rng)
	}
	if got.Stats != want.Stats || got.Probed != want.Probed || got.Partial != want.Partial ||
		got.RecvDead != want.RecvDead || errText(got.Err) != errText(want.Err) {
		t.Fatalf("round differs:\nbatch:     %+v probed=%d partial=%v err=%v\nreference: %+v probed=%d partial=%v err=%v",
			got.Stats, got.Probed, got.Partial, got.Err, want.Stats, want.Probed, want.Partial, want.Err)
	}
	if !reflect.DeepEqual(got.Blocks, want.Blocks) {
		t.Fatal("per-block results differ")
	}
}

// FuzzWriteBatchMatchesPacketLoop lets the fuzzer pick the profile (dice and,
// by seed, the windows), how the probes are cut into batches, how far the
// clock moves between them and which inner writes fail: each three bytes of
// plan are a batch size, a failing position within it and a mode.
func FuzzWriteBatchMatchesPacketLoop(f *testing.F) {
	f.Add(uint64(1), int64(1), byte(0), byte(0), byte(0), []byte{63, 0, 0, 64, 3, 1, 0, 0, 2})
	f.Add(uint64(5), int64(42), byte(40), byte(50), byte(80), []byte{64, 10, 1 | 9<<2, 1, 0, 2, 65, 64, 3 | 30<<2})
	f.Add(uint64(9), int64(7), byte(255), byte(0), byte(0), []byte{3, 1, 1})
	f.Fuzz(func(t *testing.T, seed uint64, windowSeed int64, sendErr, drop, trunc byte, plan []byte) {
		prof := Profile{Seed: seed, SendErrorProb: float64(sendErr) / 255, DropProb: float64(drop) / 255,
			TruncateProb: float64(trunc) / 255, Windows: seededWindows(rand.New(rand.NewSource(windowSeed)))}
		fail := map[int]error{}
		batch, ref := newWorld(prof, windowBase, fail, false), newWorld(prof, windowBase, fail, true)
		for i := 0; len(plan) >= 3 && i < 64; plan, i = plan[3:], i+1 {
			size, mode := 1+int(plan[0])%66, plan[2]
			at := batch.inner.attempts + int(plan[1])%size
			switch mode & 3 { // the schedule is shared: both sides are at the same attempt
			case 1:
				fail[at] = errInnerTransient
			case 2:
				fail[at] = errInnerHard
			case 3:
				fail[at], fail[at+1], fail[at+2], fail[at+3] = errInnerTransient, errInnerTransient, errInnerTransient, errInnerHard
			}
			jump := time.Duration(mode>>2) * 2 * time.Minute
			batch.clock.Sleep(jump)
			ref.clock.Sleep(jump)
			pkts := testPackets(size)
			batch.submit(pkts, time.Duration(plan[1])*time.Second)
			ref.submit(pkts, time.Duration(plan[1])*time.Second)
			batch.sameAs(t, ref, fmt.Sprintf("submission %d (%d packets)", i, size))
		}
	})
}

// An injected send error costs the retry path nothing to classify or print:
// the two errors are package-level values with constant texts.
func TestInjectedErrorDoesNotAllocate(t *testing.T) {
	tr := NewTransport(&recInner{}, &testClock{now: windowBase}, Profile{
		Windows: []Window{{From: windowBase, To: windowBase.Add(time.Hour), Kind: Blackout}},
	})
	pkts := testPackets(4)
	var text string
	allocs := testing.AllocsPerRun(100, func() {
		_, err := tr.WriteBatch(pkts)
		if !scanner.IsTransient(err) {
			t.Fatal("injected send error is not transient")
		}
		text = err.Error()
	})
	if allocs != 0 {
		t.Errorf("%v allocations per injected send error", allocs)
	}
	if text != "faults: injected send error" || (&Err{Op: "recv"}).Error() != "faults: injected recv error" ||
		(&Err{Op: "x"}).Error() != "faults: injected x error" {
		t.Errorf("error text changed: %q", text)
	}
	var fe *Err
	if _, _, err := tr.ReadPacket(0); err != scanner.ErrTimeout {
		t.Errorf("blackout read: %v", err)
	} else if _, err := tr.WriteBatch(pkts); !errors.As(err, &fe) || fe.Op != "send" {
		t.Errorf("errors.As(%v) did not find the *Err", err)
	}
}

// BenchmarkWriteBatchWrapped is 64 silent probes per call through a profile
// of 40 windows, none of them active: what a wrapped view costs per packet.
// BenchmarkWriteBatchDirect is the same wire unwrapped.
func BenchmarkWriteBatchWrapped(b *testing.B) { benchWriteBatch(b, true) }
func BenchmarkWriteBatchDirect(b *testing.B)  { benchWriteBatch(b, false) }

func benchWriteBatch(b *testing.B, wrapped bool) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	silent := simnet.ResponderFunc(func(netmodel.Addr, time.Time) simnet.Reply { return simnet.Reply{} })
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), silent, start)
	var tr scanner.BatchTransport = net
	if wrapped {
		var prof Profile
		for i := 1; i <= 40; i++ {
			from := start.Add(time.Duration(i) * time.Hour)
			prof.Windows = append(prof.Windows, Window{From: from, To: from.Add(time.Minute), Kind: Kind(i % 5), Period: time.Second})
		}
		tr = NewTransport(net, nil, prof)
	}
	v := scanner.NewValidator(1, 1, start)
	pkts := make([][]byte, 64)
	for i := range pkts {
		pkts[i] = v.AppendProbeIPv4(nil, icmp.IPv4Header{TTL: 64, Protocol: icmp.ProtoICMP,
			Src: net.LocalAddr(), Dst: netmodel.Addr(0x0a000000 + i)}, start)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := tr.WriteBatch(pkts); n != len(pkts) || err != nil {
			b.Fatal(n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
}

// rearmable is a recording inner transport that re-arms like the simulated
// wire: its attempts and echoes are forgotten (its failure schedule starts
// over) and its clock moves to the re-arm instant.
type rearmable struct {
	*recInner
	clock *testClock
}

func (r rearmable) Rearm(at time.Time) bool {
	*r.recInner = recInner{fail: r.fail}
	r.clock.now = at
	return true
}

// TestRearmMatchesNew: a wrapper re-armed after a scan of its own — its RNG
// drawn on, its window memo set, its inner transport written to — sends,
// drops, truncates and fails exactly as a fresh wrapper of the same profile
// does, the rewind after a short inner write included, while its counters go
// on from where the first scan left them. A wrapper whose inner transport
// cannot re-arm refuses, and keeps its RNG where it was.
func TestRearmMatchesNew(t *testing.T) {
	start := windowBase.Add(90 * time.Minute)
	fail := map[int]error{0: errInnerTransient, 5: errInnerHard, 70: errInnerTransient}
	for name, noise := range noiseProfiles {
		prof := noise
		prof.Windows = []Window{{From: windowBase.Add(time.Hour), To: windowBase.Add(2 * time.Hour), Kind: Flap, Period: 7 * time.Minute}}
		kept := &world{clock: &testClock{now: windowBase}, inner: &recInner{fail: fail}, m: NewMetrics(obs.NewRegistry())}
		kept.tr = NewTransport(rearmable{kept.inner, kept.clock}, kept.clock, prof)
		kept.tr.Observe(kept.m)
		kept.bt = kept.tr
		kept.submit(testPackets(65), time.Millisecond) // the first scan
		kept.submit(testPackets(64), time.Millisecond)
		first := kept.tr.Counters()
		if !kept.tr.Rearm(start) {
			t.Fatalf("%s: the wrapper did not re-arm", name)
		}
		kept.log = nil

		fresh := newWorld(prof, start, fail, false)
		for i, n := range []int{1, 2, 64, 65, 64} {
			pkts := testPackets(n)
			kept.submit(pkts, time.Millisecond)
			fresh.submit(pkts, time.Millisecond)
			desc := fmt.Sprintf("%s, submission %d (%d packets)", name, i, n)
			if !reflect.DeepEqual(kept.log, fresh.log) || !reflect.DeepEqual(kept.inner.log, fresh.inner.log) {
				t.Fatalf("%s: re-armed\n%q\n%q\nfresh\n%q\n%q", desc, kept.log, kept.inner.log, fresh.log, fresh.inner.log)
			}
			if kept.tr.rng != fresh.tr.rng || !kept.clock.now.Equal(fresh.clock.now) {
				t.Fatalf("%s: RNG %#x at %v, fresh %#x at %v", desc, kept.tr.rng, kept.clock.now, fresh.tr.rng, fresh.clock.now)
			}
			got, want := kept.tr.Counters(), fresh.tr.Counters()
			want.SendErrors += first.SendErrors
			want.Drops += first.Drops
			want.RecvErrors += first.RecvErrors
			want.Truncated += first.Truncated
			want.Blackouts += first.Blackouts
			if got != want || kept.m.SendErrors.Value() != got.SendErrors || kept.m.Drops.Value() != got.Drops {
				t.Fatalf("%s: counters %+v (metrics %d send errors, %d drops), want the first scan's plus the fresh wrapper's %+v",
					desc, got, kept.m.SendErrors.Value(), kept.m.Drops.Value(), want)
			}
		}
	}

	tr := NewTransport(&recInner{}, &testClock{now: windowBase}, noiseProfiles["all three"])
	tr.WriteBatch(testPackets(8))
	rng := tr.rng
	if tr.Rearm(start) || tr.rng != rng {
		t.Errorf("a wrapper over a transport that cannot re-arm: re-armed, or moved its RNG %#x to %#x", rng, tr.rng)
	}
}
