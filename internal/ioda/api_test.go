package ioda

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
)

func apiFixture(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	_, p := fixture(t)
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL)
}

func TestAPIASEvents(t *testing.T) {
	_, c := apiFixture(t)
	// A reported AS returns events (possibly empty but valid).
	events, err := c.ASEvents(6877)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.EntityType != "asn" || e.EntityCode != "AS6877" {
			t.Errorf("event entity = %s/%s", e.EntityType, e.EntityCode)
		}
		if e.Duration <= 0 {
			t.Errorf("non-positive duration: %+v", e)
		}
		if e.Datasource != "bgp" && e.Datasource != "active-probing" {
			t.Errorf("datasource = %q", e.Datasource)
		}
	}
	// Below the reporting floor: empty, not an error.
	small, err := c.ASEvents(25482)
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 0 {
		t.Errorf("below-floor AS returned %d events", len(small))
	}
}

func TestAPIRegionEvents(t *testing.T) {
	_, c := apiFixture(t)
	events, err := c.RegionEvents(netmodel.Kherson)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.EntityCode != "Kherson" {
			t.Errorf("entity = %q", e.EntityCode)
		}
	}
}

func TestAPIRawSignals(t *testing.T) {
	sc, _ := fixture(t)
	_, c := apiFixture(t)
	pts, err := c.RawSignals("asn", "15895", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no signal points")
	}
	// Points must be time-ordered and non-negative.
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatal("signal points not ordered")
		}
	}
	// Time filtering.
	mid := sc.TL.Time(sc.TL.NumRounds() / 2)
	filtered, err := c.RawSignals("asn", "15895", mid.Unix(), mid.Add(10*24*time.Hour).Unix())
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) == 0 || len(filtered) >= len(pts) {
		t.Errorf("filtered = %d of %d", len(filtered), len(pts))
	}
	for _, p := range filtered {
		if p.Time < mid.Unix() {
			t.Fatal("from filter ignored")
		}
	}
}

func TestAPIErrors(t *testing.T) {
	_, c := apiFixture(t)
	if _, err := c.RawSignals("asn", "not-a-number", 0, 0); err == nil {
		t.Error("bad ASN accepted")
	}
	if _, err := c.RawSignals("region", "Atlantis", 0, 0); err == nil {
		t.Error("unknown region accepted")
	}
	if _, err := c.RawSignals("planet", "Earth", 0, 0); err == nil {
		t.Error("bad entity type accepted")
	}
}

// allocWriter is a ResponseWriter that keeps its header map across
// requests, as a reused connection does: the allocation check must measure
// the handler, not map growth on a fresh writer.
type allocWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *allocWriter) Header() http.Header { return w.h }
func (w *allocWriter) WriteHeader(s int)   { w.status = s }
func (w *allocWriter) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}
func (w *allocWriter) get(h http.Handler, req *http.Request) {
	clear(w.h)
	w.status, w.body = 0, w.body[:0]
	h.ServeHTTP(w, req)
}

// TestCachedResources holds every cached JSON resource — the platform's two
// v2 endpoints and the three /v1 ones of the serve.Server it is built on —
// to the one serve path they share: the first GET renders a 200 with a
// strong ETag, a repeat GET is a counted cache hit with the same bytes and
// no allocation, If-None-Match answers 304, and each request is counted
// under the resource's own serve_requests_total label. The v2 rows come
// first: they materialize the entities the /v1 rows then read.
func TestCachedResources(t *testing.T) {
	_, p := fixture(t)
	srv := NewServer(p)
	reg := obs.NewRegistry()
	srv.Observe(reg, obs.NewBus(16))
	requests := reg.CounterVec("serve_requests_total", "", "endpoint")
	hits := reg.Counter("serve_cache_hits_total", "")
	for _, tc := range []struct{ endpoint, url string }{
		{"signals_raw", "/v2/signals/raw?entityType=asn&entityCode=15895"},
		{"signals_raw", "/v2/signals/raw?entityType=asn&entityCode=15895&from=1700000000"},
		{"outages_events", "/v2/outages/events?entityType=region&entityCode=Kherson"},
		{"outages_events", "/v2/outages/events?entityType=asn&entityCode=25482"}, // below the floor
		{"series", "/v1/series?entity=asn/15895&limit=16"},
		{"outages", "/v1/outages?entity=region/Kherson"},
		{"entities", "/v1/entities"},
	} {
		counted, hit := requests.With(tc.endpoint).Value(), hits.Value()
		req := httptest.NewRequest("GET", tc.url, nil)
		w := &allocWriter{h: make(http.Header)}
		w.get(srv, req)
		etag := w.h.Get("Etag")
		if w.status != 0 || len(w.body) == 0 || etag == "" {
			t.Errorf("GET %s: status %d, %d bytes, ETag %q", tc.url, w.status, len(w.body), etag)
			continue
		}
		first := string(w.body)
		if allocs := testing.AllocsPerRun(10, func() { w.get(srv, req) }); allocs != 0 {
			t.Errorf("GET %s: cached hit allocates %.1f objects/op, want 0", tc.url, allocs)
		}
		if string(w.body) != first || w.h.Get("Etag") != etag {
			t.Errorf("GET %s: repeat served different bytes or ETag", tc.url)
		}
		req.Header.Set("If-None-Match", etag)
		w.get(srv, req)
		if w.status != http.StatusNotModified || len(w.body) != 0 {
			t.Errorf("GET %s If-None-Match: status %d, %d bytes, want 304 and none", tc.url, w.status, len(w.body))
		}
		// One render, then AllocsPerRun's warm-up and 10 runs and the
		// revalidation: 13 requests, 12 of them hits.
		if got := requests.With(tc.endpoint).Value() - counted; got != 13 {
			t.Errorf("GET %s: serve_requests_total{%s} moved by %d, want 13", tc.url, tc.endpoint, got)
		}
		if got := hits.Value() - hit; got != 12 {
			t.Errorf("GET %s: %d cache hits, want 12", tc.url, got)
		}
	}
}

// envelope is the v2 response shape: the type, the data, or an error.
type envelope struct {
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
	Err  string          `json:"error,omitempty"`
}

// TestEnvelopeMatchesMarshal holds the appended v2 body to the bytes
// json.Marshal of an envelope gives, which is how the body was built before
// it was appended to the render's scratch buffer: empty and nil data, every
// field set, a float that prints in exponent form and a code json escapes.
func TestEnvelopeMatchesMarshal(t *testing.T) {
	for _, tc := range []struct {
		typ  string
		data interface{}
	}{
		{"outage.events", []Event{}},
		{"outage.events", []Event{{EntityType: "asn", EntityCode: "AS6877", Datasource: "bgp", Start: 1646172000, Duration: 7200, Ongoing: true}}},
		{"outage.events", []Event{{EntityType: "region", EntityCode: "<Kyiv & \"City\">"}, {}}},
		{"signals.raw", []SignalPoint(nil)},
		{"signals.raw", []SignalPoint{{Time: 1646172000, BGP: 0.5, TRIN: 1e-7}, {Time: 2, BGP: 3e21, TRIN: 241}}},
	} {
		raw, err := json.Marshal(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(envelope{Type: tc.typ, Data: raw})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		const prefix = "scratch"
		got, immutable, _, _ := renderEnvelope([]byte(prefix), tc.typ, tc.data)
		if string(got) != prefix+string(want) || !immutable {
			t.Errorf("renderEnvelope(%s) = %q (immutable %v), want %q", tc.typ, got, immutable, want)
		}
	}
}

// Client consumes the API over HTTP, the way the paper's analysis read the
// real platform's; the API tests are its only user.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient builds a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) get(path string, q url.Values, out interface{}) error {
	u := c.BaseURL + path + "?" + q.Encode()
	resp, err := c.HTTP.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return fmt.Errorf("ioda api: %w", err)
	}
	if env.Err != "" {
		return fmt.Errorf("ioda api: %s", env.Err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ioda api: status %d", resp.StatusCode)
	}
	return json.Unmarshal(env.Data, out)
}

// ASEvents fetches outage events for an AS.
func (c *Client) ASEvents(asn netmodel.ASN) ([]Event, error) {
	q := url.Values{"entityType": {"asn"}, "entityCode": {strconv.FormatUint(uint64(asn), 10)}}
	var events []Event
	err := c.get("/v2/outages/events", q, &events)
	return events, err
}

// RegionEvents fetches outage events for a region.
func (c *Client) RegionEvents(region netmodel.Region) ([]Event, error) {
	q := url.Values{"entityType": {"region"}, "entityCode": {region.String()}}
	var events []Event
	err := c.get("/v2/outages/events", q, &events)
	return events, err
}

// RawSignals fetches a raw signal series.
func (c *Client) RawSignals(entityType, code string, from, until int64) ([]SignalPoint, error) {
	q := url.Values{"entityType": {entityType}, "entityCode": {code}}
	if from > 0 {
		q.Set("from", strconv.FormatInt(from, 10))
	}
	if until > 0 {
		q.Set("until", strconv.FormatInt(until, 10))
	}
	var pts []SignalPoint
	err := c.get("/v2/signals/raw", q, &pts)
	return pts, err
}
