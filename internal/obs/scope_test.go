package obs

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestRegistryScope registers instruments of every kind through two
// countries' scopes: each family carries a leading country label that With
// fills in, so the two countries are two series of one family, which the
// unscoped registry exports and resolves by naming the country itself.
func TestRegistryScope(t *testing.T) {
	reg := NewRegistry()
	ua, ro := reg.Scope("UA"), reg.Scope("RO")
	ua.Counter("scoped_sent_total", "Sent.").Add(2)
	ro.Counter("scoped_sent_total", "Sent.").Inc()
	ua.CounterVec("scoped_replies_total", "Replies.", "result").With("valid").Add(5)
	ua.Scope("RO").Gauge("scoped_round", "Round.").Set(7)
	ro.Histogram("scoped_dur_seconds", "Durations.", 4).Observe(1.5)
	if got := reg.CounterVec("scoped_sent_total", "", "country").With("UA").Value(); got != 2 {
		t.Errorf("the unscoped view reads UA's counter as %d, want 2", got)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{
		`scoped_sent_total{country="UA"} 2`,
		`scoped_sent_total{country="RO"} 1`,
		`scoped_replies_total{country="UA",result="valid"} 5`,
		`scoped_round{country="RO"} 7`,
		`scoped_dur_seconds{country="RO",quantile="0.5"} 1.5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a scoped family re-registered unscoped did not panic")
		}
	}()
	reg.Counter("scoped_sent_total", "Sent.")
}

// TestBusScope publishes through two countries' scopes and the unscoped bus
// onto one ring: each country's view reads, and is sent, its own events and
// the unscoped ones; the unscoped view every event.
func TestBusScope(t *testing.T) {
	bus := NewBus(16)
	ua, ro := bus.Scope("UA"), bus.Scope("RO")
	uaCh, cancelUA := ua.Subscribe(8)
	defer cancelUA()
	allCh, cancelAll := bus.Subscribe(8)
	defer cancelAll()
	ua.Publish("a", nil)
	ro.Publish("b", nil)
	bus.Publish("c", nil)
	ua.Scope("RO").Publish("d", nil)

	list := func(evs []Event) string {
		var parts []string
		for _, ev := range evs {
			parts = append(parts, ev.Kind+"/"+ev.Country)
		}
		return strings.Join(parts, " ")
	}
	drain := func(ch <-chan Event) []Event {
		var evs []Event
		for len(ch) > 0 {
			evs = append(evs, <-ch)
		}
		return evs
	}
	for _, c := range []struct {
		name      string
		got, want string
	}{
		{"UA Since", list(ua.Since(0)), "a/UA c/"},
		{"RO Since", list(ro.Since(0)), "b/RO c/ d/RO"},
		{"unscoped Since", list(bus.Since(0)), "a/UA b/RO c/ d/RO"},
		{"UA Subscribe", list(drain(uaCh)), "a/UA c/"},
		{"unscoped Subscribe", list(drain(allCh)), "a/UA b/RO c/ d/RO"},
	} {
		if c.got != c.want {
			t.Errorf("%s: %q, want %q", c.name, c.got, c.want)
		}
	}
}

// pipeWriter is an http.ResponseWriter whose writes block until the test
// reads them: a client that stalls on demand.
type pipeWriter struct {
	*io.PipeWriter
	header http.Header
}

func (w pipeWriter) Header() http.Header { return w.header }
func (pipeWriter) WriteHeader(int)       {}
func (pipeWriter) Flush()                {}

// TestSSEScopedStreamResyncsOnDrop streams UA's scope to a client through a
// one-event subscription. Live, RO's events never reach it. Then the client
// stalls while UA, RO and unscoped events alternate, so the subscription
// drops most of them: the stream must still hold each UA and unscoped event
// exactly once, in order, and no RO event — a per-country stream's Seqs have
// gaps, so it resyncs on its subscription's drops, not on a gap — and the
// drops are counted against UA.
func TestSSEScopedStreamResyncsOnDrop(t *testing.T) {
	bus, reg := NewBus(4096), NewRegistry()
	ua, ro := bus.Scope("UA"), bus.Scope("RO")
	dropped := reg.Scope("UA").Counter("bus_dropped_events_total", "")
	ua.CountDrops(dropped)
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveEventsSSE(pipeWriter{pw, http.Header{}}, httptest.NewRequest("GET", "/", nil).WithContext(ctx), ua, 0, 1)
	}()
	defer func() {
		cancel()
		pr.Close()
		<-done
	}()
	client := &sseClient{scanner: bufio.NewScanner(pr)}
	if want := ua.Publish("first", nil).Seq; client.nextSeq(t) != want { // the handler has subscribed
		t.Fatal("the stream lost its first event")
	}
	// drained waits until the handler has taken every event sent to it, so
	// the next publish cannot overflow its one slot.
	drained := func() {
		for {
			bus.mu.Lock()
			n := 0
			for s := range bus.subs {
				n += len(s.ch)
			}
			bus.mu.Unlock()
			if n == 0 {
				return
			}
			runtime.Gosched()
		}
	}

	for i := 0; i < 20; i++ {
		ro.Publish("ro", nil)
		drained()
		want := ua.Publish("ua", nil).Seq
		if got := client.nextSeq(t); got != want {
			t.Fatalf("live seq = %d, want UA's %d", got, want)
		}
	}

	var want []uint64
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			want = append(want, ua.Publish("ua", nil).Seq)
		case 1:
			ro.Publish("ro", nil)
		default:
			want = append(want, bus.Publish("shared", nil).Seq)
		}
	}
	for _, w := range want {
		if got := client.nextSeq(t); got != w {
			t.Fatalf("seq = %d, want %d", got, w)
		}
	}
	if bus.Dropped() == 0 {
		t.Fatal("no drops: the stalled client never made the stream resync")
	}
	if dropped.Value() != bus.Dropped() {
		t.Errorf("UA's drop counter reads %d, the bus dropped %d", dropped.Value(), bus.Dropped())
	}
}
