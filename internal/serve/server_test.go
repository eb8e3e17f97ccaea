package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"countrymon/internal/obs"
	"countrymon/internal/signals"
)

type seriesResp struct {
	Entity     string    `json:"entity"`
	Watermark  int       `json:"watermark"`
	Total      int       `json:"total"`
	Offset     int       `json:"offset"`
	Limit      int       `json:"limit"`
	StartRound int       `json:"start_round"`
	Count      int       `json:"count"`
	Time       []int64   `json:"time"`
	BGP        []float32 `json:"bgp"`
	FBS        []float32 `json:"fbs"`
	IPS        []float32 `json:"ips"`
	Missing    []bool    `json:"missing"`
	IPSValid   []bool    `json:"ips_valid"`
}

func newTestServer(t testing.TB, sealed int) (*Server, *Store) {
	t.Helper()
	st := NewStore(testTimeline())
	if _, err := st.Register("asn", "6877", patternSource{1}, DetectWith(signals.ASConfig())); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register("region", "Kherson", patternSource{2}, DetectWith(signals.RegionConfig())); err != nil {
		t.Fatal(err)
	}
	if err := st.AdvanceTo(sealed); err != nil {
		t.Fatal(err)
	}
	return NewServer(st), st
}

func get(t *testing.T, s *Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func getSeries(t *testing.T, s *Server, url string) (seriesResp, *httptest.ResponseRecorder) {
	t.Helper()
	rec := get(t, s, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body.String())
	}
	var out seriesResp
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, rec.Body.String())
	}
	return out, rec
}

func TestSeriesEndpoint(t *testing.T) {
	s, st := newTestServer(t, 40)
	out, _ := getSeries(t, s, "/v1/series?entity=asn/6877")
	if out.Entity != "asn/6877" || out.Watermark != 40 || out.Total != 40 || out.Count != 40 {
		t.Fatalf("snapshot header wrong: %+v", out)
	}
	tl := st.tl
	for i := 0; i < out.Count; i++ {
		bgp, fbs, ips, miss := (patternSource{1}).Sample(i)
		if out.BGP[i] != bgp || out.FBS[i] != fbs || out.IPS[i] != ips || out.Missing[i] != miss {
			t.Fatalf("round %d values wrong", i)
		}
		if out.Time[i] != tl.Time(i).Unix() {
			t.Fatalf("round %d time wrong", i)
		}
		if out.IPSValid[i] != (patternSource{1}).IPSValidMonth(tl.MonthOfRound(i)) {
			t.Fatalf("round %d ips_valid wrong", i)
		}
	}
}

func TestSeriesPagination(t *testing.T) {
	s, _ := newTestServer(t, 40)
	var got []float32
	pages := 0
	for off := 0; ; {
		out, _ := getSeries(t, s, "/v1/series?entity=asn/6877&limit=12&offset="+strconv.Itoa(off))
		if out.Total != 40 || out.Limit != 12 || out.Offset != off {
			t.Fatalf("page header wrong: %+v", out)
		}
		got = append(got, out.IPS...)
		pages++
		off += out.Count
		if out.Count < 12 {
			break
		}
	}
	if pages != 4 || len(got) != 40 {
		t.Fatalf("pagination walked %d pages, %d rounds", pages, len(got))
	}
	full, _ := getSeries(t, s, "/v1/series?entity=asn/6877")
	for i := range full.IPS {
		if got[i] != full.IPS[i] {
			t.Fatalf("paged value %d differs from snapshot", i)
		}
	}
}

func TestSeriesDelta(t *testing.T) {
	s, st := newTestServer(t, 30)
	out, _ := getSeries(t, s, "/v1/series?entity=asn/6877&since=25")
	if out.StartRound != 25 || out.Count != 5 || out.Watermark != 30 {
		t.Fatalf("delta wrong: %+v", out)
	}
	// The returned watermark is the next poll's since: empty until new data.
	out, _ = getSeries(t, s, "/v1/series?entity=asn/6877&since="+strconv.Itoa(out.Watermark))
	if out.Count != 0 {
		t.Fatalf("caught-up delta returned %d rounds", out.Count)
	}
	// A landed round appears in the next delta.
	if err := st.Advance(30); err != nil {
		t.Fatal(err)
	}
	out, _ = getSeries(t, s, "/v1/series?entity=asn/6877&since=30")
	if out.Count != 1 || out.StartRound != 30 || out.Watermark != 31 {
		t.Fatalf("post-advance delta wrong: %+v", out)
	}
}

func TestSeriesErrors(t *testing.T) {
	s, _ := newTestServer(t, 10)
	// An offset past the window is an empty page, however large: lo+offset
	// used to overflow into a negative slice bound.
	out, _ := getSeries(t, s, "/v1/series?entity=asn/6877&since=1&offset=9223372036854775807")
	if out.Count != 0 || out.StartRound != 10 || out.Total != 9 {
		t.Errorf("offset beyond the window: %+v", out)
	}
	for url, want := range map[string]int{
		"/v1/series":                              http.StatusBadRequest,
		"/v1/series?entity=asn/999":               http.StatusNotFound,
		"/v1/series?entity=asn/6877&limit=0":      http.StatusBadRequest,
		"/v1/series?entity=asn/6877&limit=x":      http.StatusBadRequest,
		"/v1/series?entity=asn/6877&offset=-1":    http.StatusBadRequest,
		"/v1/series?entity=asn/6877&since=-2":     http.StatusBadRequest,
		"/v1/series?entity=asn/6877&from=notunix": http.StatusBadRequest,
		"/v1/outages?entity=nope/x":               http.StatusNotFound,
	} {
		rec := get(t, s, url)
		if rec.Code != want {
			t.Errorf("GET %s = %d, want %d", url, rec.Code, want)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: error body not JSON: %s", url, rec.Body.String())
		}
	}
}

func TestCachingSemantics(t *testing.T) {
	s, st := newTestServer(t, 70)
	tl := st.tl

	// A window pinned inside sealed, month-complete history is immutable.
	_, mhi := tl.MonthRounds(0)
	if mhi > 70 {
		t.Fatalf("fixture: first month (%d rounds) not sealed", mhi)
	}
	until := tl.Time(mhi - 1).Unix()
	immURL := "/v1/series?entity=asn/6877&from=" + strconv.FormatInt(tl.Time(0).Unix(), 10) + "&until=" + strconv.FormatInt(until, 10)
	_, rec := getSeries(t, s, immURL)
	if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Fatalf("sealed-window Cache-Control = %q", cc)
	}
	etag := rec.Header().Get("Etag")
	if etag == "" {
		t.Fatal("no ETag on sealed-window response")
	}

	// Conditional revalidation: If-None-Match returns 304 with no body.
	req := httptest.NewRequest("GET", immURL, nil)
	req.Header.Set("If-None-Match", etag)
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified || rec2.Body.Len() != 0 {
		t.Fatalf("revalidation = %d, body %d bytes", rec2.Code, rec2.Body.Len())
	}

	// The live-edge snapshot is mutable and must change when a round lands.
	liveURL := "/v1/series?entity=asn/6877&since=65"
	_, live1 := getSeries(t, s, liveURL)
	if cc := live1.Header().Get("Cache-Control"); strings.Contains(cc, "immutable") {
		t.Fatalf("live-edge response marked immutable: %q", cc)
	}
	_, live2 := getSeries(t, s, liveURL)
	if live1.Body.String() != live2.Body.String() {
		t.Fatal("identical queries served different bytes")
	}
	if err := st.Advance(70); err != nil {
		t.Fatal(err)
	}
	out, live3 := getSeries(t, s, liveURL)
	if live3.Body.String() == live1.Body.String() || out.Watermark != 71 {
		t.Fatal("cached live-edge response survived Advance")
	}
	// The immutable response is byte-identical across the Advance.
	_, rec3 := getSeries(t, s, immURL)
	if rec3.Body.String() != rec.Body.String() || rec3.Header().Get("Etag") != etag {
		t.Fatal("immutable response changed after Advance")
	}
}

// TestImmutableBodyIgnoresWatermark: an immutable response is a function of
// the query and sealed cells only, so a cold cache (a fresh Server over the
// same store, or an evicted entry) renders the very same bytes and ETag at
// any later watermark.
func TestImmutableBodyIgnoresWatermark(t *testing.T) {
	s, st := newTestServer(t, 70)
	tl := st.tl
	_, mhi := tl.MonthRounds(0)
	url := "/v1/series?entity=asn/6877&from=" + strconv.FormatInt(tl.Time(0).Unix(), 10) +
		"&until=" + strconv.FormatInt(tl.Time(mhi-1).Unix(), 10)
	out, before := getSeries(t, s, url)
	if cc := before.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Fatalf("fixture: Cache-Control = %q", cc)
	}
	if out.Watermark != mhi || out.Total != mhi {
		t.Errorf("pinned window reports watermark %d, total %d, want its bound %d", out.Watermark, out.Total, mhi)
	}
	if err := st.Advance(70); err != nil {
		t.Fatal(err)
	}
	_, after := getSeries(t, NewServer(st), url)
	if after.Body.String() != before.Body.String() || after.Header().Get("Etag") != before.Header().Get("Etag") {
		t.Errorf("re-rendered immutable response changed:\n%s %s\n%s %s",
			before.Header().Get("Etag"), before.Body.String()[:60], after.Header().Get("Etag"), after.Body.String()[:60])
	}
}

func TestCacheHitServesIdenticalBytes(t *testing.T) {
	s, _ := newTestServer(t, 40)
	reg := obs.NewRegistry()
	s.Observe(reg, obs.NewBus(16))
	url := "/v1/series?entity=region/Kherson&limit=10"
	_, a := getSeries(t, s, url)
	_, b := getSeries(t, s, url)
	if a.Body.String() != b.Body.String() {
		t.Fatal("hit bytes differ from miss bytes")
	}
	if s.cacheHits.Value() != 1 || s.cacheMisses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.cacheHits.Value(), s.cacheMisses.Value())
	}
}

func TestOutagesEndpoint(t *testing.T) {
	st := NewStore(testTimeline())
	det := func(es *signals.EntitySeries, _ *signals.Detection, _ *signals.State, _ int) (*signals.Detection, *signals.State) {
		return &signals.Detection{
			Flags: make([]signals.Kind, es.BGP.Len()),
			Outages: []signals.Outage{
				{Start: 3, End: 7, Signals: signals.SignalBGP | signals.SignalIPS},
				{Start: 12, End: 20, Signals: signals.SignalFBS, Ongoing: true},
			},
		}, nil
	}
	if _, err := st.Register("asn", "1", patternSource{0}, det); err != nil {
		t.Fatal(err)
	}
	if err := st.AdvanceTo(30); err != nil {
		t.Fatal(err)
	}
	s := NewServer(st)
	rec := get(t, s, "/v1/outages?entity=asn/1")
	if rec.Code != http.StatusOK {
		t.Fatalf("outages = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Entity    string `json:"entity"`
		Watermark int    `json:"watermark"`
		Outages   []struct {
			StartRound int    `json:"start_round"`
			EndRound   int    `json:"end_round"`
			Start      int64  `json:"start"`
			End        int64  `json:"end"`
			Signals    string `json:"signals"`
			Ongoing    bool   `json:"ongoing"`
		} `json:"outages"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad outages JSON: %v\n%s", err, rec.Body.String())
	}
	if out.Watermark != 30 || len(out.Outages) != 2 {
		t.Fatalf("outages payload wrong: %+v", out)
	}
	o := out.Outages[0]
	tl := st.tl
	if o.StartRound != 3 || o.EndRound != 7 || o.Signals != "bgp+ips" || o.Ongoing {
		t.Fatalf("first outage wrong: %+v", o)
	}
	if o.Start != tl.Time(3).Unix() || o.End != tl.Time(6).Add(tl.Interval()).Unix() {
		t.Fatalf("outage times wrong: %+v", o)
	}
	if !out.Outages[1].Ongoing || out.Outages[1].Signals != "fbs" {
		t.Fatalf("second outage wrong: %+v", out.Outages[1])
	}
}

func TestEntitiesEndpoint(t *testing.T) {
	s, _ := newTestServer(t, 5)
	rec := get(t, s, "/v1/entities")
	var out struct {
		Watermark int `json:"watermark"`
		Count     int `json:"count"`
		Entities  []struct{ Key, Type, Code string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 || out.Watermark != 5 {
		t.Fatalf("entities payload wrong: %+v", out)
	}
	rec = get(t, s, "/v1/entities?type=region")
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 1 || out.Entities[0].Key != "region/Kherson" {
		t.Fatalf("type filter wrong: %+v", out)
	}
}

// reusableWriter is an http.ResponseWriter that retains its header map's
// buckets across requests: the production server reuses connections the
// same way, and the allocation test must measure the handler, not map
// growth on a fresh writer.
type reusableWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *reusableWriter) Header() http.Header         { return w.h }
func (w *reusableWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *reusableWriter) WriteHeader(code int)        { w.status = code }
func (w *reusableWriter) reset() {
	clear(w.h)
	w.status, w.n = 0, 0
}

// TestCachedQueryZeroAlloc is the hard acceptance criterion of the read
// path: after the first (rendering) request, serving the same query
// allocates nothing — directly, through the Router's country-scoped
// spelling, and under a mount prefix such as the portal's /data.
func TestCachedQueryZeroAlloc(t *testing.T) {
	s, _ := newTestServer(t, 40)
	s.Observe(obs.NewRegistry(), obs.NewBus(16))
	rt := NewRouter()
	if err := rt.Add("UA", "Ukraine", s); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h    http.Handler
		path string
	}{
		{s, "/v1/series"},
		{rt, "/v1/series"},
		{rt, "/v1/countries/UA/series"},
		{s, "/data/v1/series"},
	} {
		req := httptest.NewRequest("GET", tc.path+"?entity=asn/6877&limit=20", nil)
		w := &reusableWriter{h: make(http.Header)}
		tc.h.ServeHTTP(w, req) // warm the cache
		if w.status != 0 || w.n == 0 {
			t.Fatalf("%s: warmup failed: status %d, %d bytes", tc.path, w.status, w.n)
		}
		allocs := testing.AllocsPerRun(200, func() {
			w.reset()
			tc.h.ServeHTTP(w, req)
		})
		if allocs != 0 {
			t.Errorf("%s: cached query allocates %.1f objects/op, want 0", tc.path, allocs)
		}
	}
}

// TestMissAllocs pins what a render costs the heap: a /v1/series cache miss
// allocates its body, its entry and the entry's ETag-and-key string, and
// nothing per query parameter or per byte of body growth (11 allocations
// when the query was parsed into url.Values and the body grew from a guess).
func TestMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch buffers at random under -race")
	}
	s, st := newTestServer(t, 40)
	s.Observe(obs.NewRegistry(), obs.NewBus(16))
	from := strconv.FormatInt(st.tl.Time(2).Unix(), 10)
	reqs := make([]*http.Request, 300)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", "/v1/series?entity=asn/6877&from="+from+"&limit=30&offset="+strconv.Itoa(i), nil)
	}
	w := &reusableWriter{h: make(http.Header)}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		w.reset()
		s.ServeHTTP(w, reqs[i])
		i++
	})
	if w.status != 0 || w.n == 0 || s.cacheMisses.Value() != 201 {
		t.Fatalf("status %d, %d bytes, %d misses: want 201 rendered 200s", w.status, w.n, s.cacheMisses.Value())
	}
	if allocs > 3 {
		t.Errorf("a cache miss allocates %.1f objects, want at most 3", allocs)
	}
}

// TestETagContract pins what a client and a replica rely on: an ETag is a
// digest of the body bytes alone — a golden value for a fixed body, so a
// change of digest is a deliberate diff; the same tags from two stores built
// apart with the same cells; another tag for a body one byte off.
func TestETagContract(t *testing.T) {
	body := []byte(`{"entity":"asn/6877","watermark":40,"outages":[]}`)
	if got, want := newEntry(body, "entity=asn/6877", true, 0).etag[0], `"25fa7dfdc5f4a755"`; got != want {
		t.Errorf("ETag of the golden body = %s, want %s", got, want)
	}
	for i := range body {
		for _, flip := range []byte{1, 0x80, 0xff} {
			b := slices.Clone(body)
			b[i] ^= flip
			if etagOf(b) == etagOf(body) {
				t.Fatalf("byte %d ^ %#x leaves the ETag at %x", i, flip, etagOf(b))
			}
		}
	}

	// One store registers and then seals, the other seals round by round
	// and registers late, in the other order: the same cells.
	a, _ := newTestServer(t, 40)
	st := NewStore(testTimeline())
	for r := 0; r < 40; r++ {
		if err := st.Advance(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Register("region", "Kherson", patternSource{2}, DetectWith(signals.RegionConfig())); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register("asn", "6877", patternSource{1}, DetectWith(signals.ASConfig())); err != nil {
		t.Fatal(err)
	}
	b := NewServer(st)
	for _, q := range []string{
		"/v1/series?entity=asn/6877", "/v1/series?entity=region/Kherson&limit=10&offset=5",
		"/v1/outages?entity=asn/6877", "/v1/outages?entity=region/Kherson",
	} {
		ra, rb := get(t, a, q), get(t, b, q)
		if ra.Code != http.StatusOK || ra.Header().Get("Etag") == "" || ra.Header().Get("Etag") != rb.Header().Get("Etag") {
			t.Errorf("GET %s: %d ETag %q, from the other store %d %q", q, ra.Code, ra.Header().Get("Etag"), rb.Code, rb.Header().Get("Etag"))
		}
	}
}
