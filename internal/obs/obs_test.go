package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Idempotent re-registration returns the same instrument.
	if reg.Counter("test_ops_total", "ops") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := reg.Gauge("test_round", "round")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestRegistryShapeConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("test_x", "")
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds", "lat", 128)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 5050 {
		t.Fatalf("count=%d sum=%v", s.Count, s.Sum)
	}
	if s.P50 < 45 || s.P50 > 55 {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P95 < 90 || s.P95 > 99 {
		t.Errorf("p95 = %v", s.P95)
	}
	if s.P99 < 95 || s.P99 > 100 {
		t.Errorf("p99 = %v", s.P99)
	}
}

func TestHistogramWindowSlides(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_win", "", 4)
	for i := 0; i < 100; i++ {
		h.Observe(1000) // old observations that must age out
	}
	for i := 0; i < 4; i++ {
		h.Observe(1)
	}
	s := h.Snapshot()
	if s.P99 != 1 {
		t.Fatalf("window did not slide: p99 = %v", s.P99)
	}
	if s.Count != 104 {
		t.Fatalf("cumulative count = %d", s.Count)
	}
}

func TestCounterVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("test_events_total", "", "kind")
	a := v.With("drop")
	a.Add(3)
	if v.With("drop") != a {
		t.Fatal("same labels resolved to a different counter")
	}
	v.With("stall").Inc()
	if a.Value() != 3 {
		t.Fatalf("drop = %d", a.Value())
	}
	if v.With("drop", "extra") != nil {
		t.Fatal("label-arity mismatch did not return nil")
	}
}

func TestGaugeVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("test_health", "", "vantage")
	a := v.With("v0")
	a.Set(750)
	if v.With("v0") != a {
		t.Fatal("same labels resolved to a different gauge")
	}
	v.With("v1").Set(-3)
	if a.Value() != 750 || v.With("v1").Value() != -3 {
		t.Fatalf("gauge children = %d, %d", a.Value(), v.With("v1").Value())
	}
	if v.With("v0", "extra") != nil {
		t.Fatal("label-arity mismatch did not return nil")
	}
	var nilVec *GaugeVec
	nilVec.With("x").Set(1) // must not panic

	var prom strings.Builder
	reg.WritePrometheus(&prom)
	for _, want := range []string{
		"# TYPE test_health gauge",
		`test_health{vantage="v0"} 750`,
		`test_health{vantage="v1"} -3`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus export missing %q\n%s", want, prom.String())
		}
	}

	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]struct {
		Type   string `json:"type"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Gauge  *int64            `json:"gauge"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	m := out["test_health"]
	if m.Type != "gauge" || len(m.Series) != 2 {
		t.Fatalf("test_health = %+v", m)
	}
	if m.Series[0].Gauge == nil || *m.Series[0].Gauge != 750 || m.Series[0].Labels["vantage"] != "v0" {
		t.Fatalf("gauge series = %+v", m.Series)
	}
}

func TestHistogramVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("test_round_seconds", "Round time.", 8, "country")
	ua := v.With("UA")
	if v.With("UA") != ua || reg.HistogramVec("test_round_seconds", "", 0, "country").With("UA") != ua {
		t.Fatal("same labels resolved to a different histogram")
	}
	if v.With("UA", "extra") != nil {
		t.Fatal("label-arity mismatch did not return nil")
	}
	ua.Observe(2)
	ua.Observe(4)
	v.With("RO").Observe(1)
	if s := ua.Snapshot(); s.Count != 2 || s.Sum != 6 {
		t.Fatalf("UA summary = %+v", s)
	}

	var prom strings.Builder
	reg.WritePrometheus(&prom)
	for _, want := range []string{
		"# TYPE test_round_seconds summary\n",
		`test_round_seconds{country="UA",quantile="0.5"} 4` + "\n",
		`test_round_seconds_sum{country="UA"} 6` + "\n",
		`test_round_seconds_count{country="UA"} 2` + "\n",
		`test_round_seconds{country="RO",quantile="0.99"} 1` + "\n",
		`test_round_seconds_count{country="RO"} 1` + "\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus export missing %q\n%s", want, prom.String())
		}
	}

	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]struct {
		Summary *HistSnapshot `json:"summary"`
		Series  []struct {
			Labels  map[string]string `json:"labels"`
			Summary *HistSnapshot     `json:"summary"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	m := out["test_round_seconds"]
	if m.Summary != nil || len(m.Series) != 2 {
		t.Fatalf("test_round_seconds = %+v", m)
	}
	if s := m.Series[0]; s.Labels["country"] != "UA" || s.Summary == nil || s.Summary.Count != 2 || s.Summary.P50 != 4 {
		t.Fatalf("UA series = %+v", s)
	}
}

// TestConcurrentResolveAndScrape: scrapes read the family and child lists
// without holding their locks while other goroutines register families and
// resolve children; under -race this holds that the lists are only appended.
func TestConcurrentResolveAndScrape(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				label := strconv.Itoa(g*100 + i)
				reg.HistogramVec("test_conc_seconds", "", 4, "id").With(label).Observe(float64(i))
				reg.CounterVec("test_conc_total", "", "id").With(label).Inc()
				reg.Gauge("test_conc_"+label, "").Set(int64(i))
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		reg.WritePrometheus(io.Discard)
		if err := reg.WriteJSON(io.Discard); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	var prom strings.Builder
	reg.WritePrometheus(&prom)
	if n := strings.Count(prom.String(), "test_conc_seconds_count{"); n != 200 {
		t.Fatalf("%d summary children exported, want 200", n)
	}
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		v  *CounterVec
		hv *HistogramVec
		b  *Bus
		r  *Registry
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	v.With("x").Inc()
	hv.With("x").Observe(1)
	b.Publish("noop", nil)
	b.Emit("noop", func() any {
		t.Fatal("a nil bus built an event's fields")
		return nil
	})
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil ||
		r.Histogram("x", "", 0) != nil || r.CounterVec("x", "", "l") != nil ||
		r.GaugeVec("x", "", "l") != nil || r.HistogramVec("x", "", 0, "l") != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	if r.Scope("UA") != nil || b.Scope("UA") != nil {
		t.Fatal("a nil registry or bus has a live scope")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instrument recorded a value")
	}
}

// TestDisabledPathNoAllocs pins the tentpole's overhead contract: with no
// registry attached (nil instruments), the hot-path operations allocate
// nothing.
func TestDisabledPathNoAllocs(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	vec := (*Registry)(nil).CounterVec("x", "", "kind")
	child := vec.With("drop")                                              // nil
	hchild := (*Registry)(nil).Scope("UA").HistogramVec("y", "", 0).With() // nil
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(64)
		g.Set(3)
		h.Observe(0.5)
		child.Inc()
		hchild.Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %v times per op", allocs)
	}
}

// BenchmarkDisabledCounter and BenchmarkEnabledCounter bracket the cost of
// one instrumentation point with and without a registry: the nil fast path
// must stay free (TestDisabledPathNoAllocs holds its allocations at 0).
func BenchmarkDisabledCounter(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() == 0 {
		b.Fatal("counter did not count")
	}
}

func TestBusRingAndSince(t *testing.T) {
	bus := NewBus(4)
	for i := 0; i < 10; i++ {
		bus.Publish("tick", map[string]any{"i": i})
	}
	evs := bus.Since(0)
	if len(evs) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("retained seqs %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}
	if got := bus.Since(9); len(got) != 1 || got[0].Seq != 10 {
		t.Fatalf("Since(9) = %+v", got)
	}
	if bus.Seq() != 10 {
		t.Fatalf("Seq() = %d", bus.Seq())
	}
}

// TestPublishOmitsEmptyFields: an event Publish makes of a nil or empty map
// writes no "fields" key, on a bus or a nil one, as it did while Fields was
// a map; one of a non-empty map writes its map.
func TestPublishOmitsEmptyFields(t *testing.T) {
	for _, c := range []struct {
		fields map[string]any
		want   string
	}{{nil, ""}, {map[string]any{}, ""}, {map[string]any{"round": 1}, `,"fields":{"round":1}`}} {
		for _, bus := range []*Bus{NewBus(4), nil} {
			ev := bus.Publish("e", c.fields)
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			if _, after, _ := strings.Cut(string(data), `"kind":"e"`); after != c.want+"}" {
				t.Errorf("Publish(%#v) on bus %p encodes %s, want %q after the kind", c.fields, bus, data, c.want)
			}
		}
	}
}

func TestBusSubscribe(t *testing.T) {
	bus := NewBus(16)
	ch, cancel := bus.Subscribe(8)
	defer cancel()
	bus.Publish("round_start", map[string]any{"round": 1})
	select {
	case ev := <-ch:
		if ev.Kind != "round_start" || ev.Fields.(map[string]any)["round"] != 1 {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber received nothing")
	}
	cancel()
	bus.Publish("after_cancel", nil)
	select {
	case ev, ok := <-ch:
		if ok {
			t.Fatalf("cancelled subscriber received %+v", ev)
		}
	default:
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	bus := NewBus(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				bus.Publish("tick", nil)
			}
		}()
	}
	wg.Wait()
	if bus.Seq() != 800 {
		t.Fatalf("seq = %d, want 800", bus.Seq())
	}
}

func TestPrometheusExport(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_sent_total", "Probes transmitted.").Add(42)
	reg.Gauge("test_round", "Current round.").Set(7)
	reg.Histogram("test_dur_seconds", "Durations.", 16).Observe(0.25)
	reg.CounterVec("test_faults_total", "Faults.", "kind").With("drop").Add(3)

	srv := httptest.NewServer(MetricsHandler(reg))
	defer srv.Close()
	body := mustGet(t, srv.URL)
	for _, want := range []string{
		"# TYPE test_sent_total counter",
		"test_sent_total 42",
		"test_round 7",
		"# TYPE test_dur_seconds summary",
		`test_dur_seconds{quantile="0.5"} 0.25`,
		"test_dur_seconds_count 1",
		`test_faults_total{kind="drop"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus export missing %q\n%s", want, body)
		}
	}
}

func TestJSONExport(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_sent_total", "").Add(42)
	reg.CounterVec("test_faults_total", "", "kind").With("drop").Add(3)

	srv := httptest.NewServer(MetricsHandler(reg))
	defer srv.Close()
	body := mustGet(t, srv.URL+"?format=json")
	var out map[string]struct {
		Type   string  `json:"type"`
		Value  *uint64 `json:"value"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Value  uint64            `json:"value"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if m := out["test_sent_total"]; m.Value == nil || *m.Value != 42 {
		t.Fatalf("test_sent_total = %+v", m)
	}
	if m := out["test_faults_total"]; len(m.Series) != 1 || m.Series[0].Value != 3 ||
		m.Series[0].Labels["kind"] != "drop" {
		t.Fatalf("test_faults_total = %+v", m)
	}
}

func TestEventsJSONLongPoll(t *testing.T) {
	bus := NewBus(16)
	bus.Publish("a", nil)
	bus.Publish("b", nil)
	srv := httptest.NewServer(EventsHandler(bus))
	defer srv.Close()

	var evs []Event
	if err := json.Unmarshal([]byte(mustGet(t, srv.URL+"?format=json&since=1")), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != "b" {
		t.Fatalf("since=1 events = %+v", evs)
	}

	// Long-poll: publish concurrently while a ?wait request is pending.
	done := make(chan []Event, 1)
	go func() {
		var got []Event
		_ = json.Unmarshal([]byte(mustGet(t, srv.URL+"?format=json&since=2&wait=5s")), &got)
		done <- got
	}()
	time.Sleep(50 * time.Millisecond)
	bus.Publish("c", nil)
	select {
	case got := <-done:
		if len(got) != 1 || got[0].Kind != "c" {
			t.Fatalf("long-poll events = %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never returned")
	}
}

func TestEventsSSE(t *testing.T) {
	bus := NewBus(16)
	bus.Publish("round_start", map[string]any{"round": 0})
	bus.Publish("round_scanned", map[string]any{"round": 0})

	req := httptest.NewRequest("GET", "/events?since=0", nil)
	rec := httptest.NewRecorder()
	// The backlog is replayed synchronously before the live loop blocks on
	// the request context, so serving an already-cancelled request delivers
	// the retained events and returns — no concurrent body access.
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	EventsHandler(bus).ServeHTTP(rec, req.WithContext(ctx))
	body := rec.Body.String()
	if strings.Count(body, "data: ") != 2 {
		t.Fatalf("SSE backlog not delivered:\n%s", body)
	}
	if !strings.Contains(body, "event: round_start") || !strings.Contains(body, `"kind":"round_scanned"`) {
		t.Fatalf("SSE body:\n%s", body)
	}
}

func TestHandlerIndexAndNilBackends(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil))
	defer srv.Close()
	if !strings.Contains(mustGet(t, srv.URL+"/"), "/metrics") {
		t.Error("index does not list endpoints")
	}
	for _, p := range []string{"/metrics", "/events"} {
		resp, err := srv.Client().Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 503 {
			t.Errorf("%s with nil backend: status %d, want 503", p, resp.StatusCode)
		}
	}
}

func mustGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
