package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/serve"
	"countrymon/internal/timeline"
)

func testPortal(t *testing.T) (*Portal, *httptest.Server) {
	t.Helper()
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(0, 2, 0), 2*time.Hour)
	store := dataset.NewStore(tl, []netmodel.BlockID{
		netmodel.MustParseBlock("91.198.4.0/24"),
		netmodel.MustParseBlock("91.198.5.0/24"),
	})
	for r := 0; r < tl.NumRounds(); r++ {
		store.SetRound(0, r, 25, true)
		store.SetRound(1, r, 0, r%2 == 0)
	}
	p := New(store, []byte("test-anon-key"), "researcher-token")
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

func TestInfoPage(t *testing.T) {
	_, srv := testPortal(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "Opt out") {
		t.Error("info page missing opt-out instructions")
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestOptOutFlow(t *testing.T) {
	p, srv := testPortal(t)
	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/opt-out", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(`{"prefix": "91.198.5.0/24"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("opt-out status = %d", resp.StatusCode)
	}
	// Duplicate is idempotent.
	post(`{"prefix": "91.198.5.0/24"}`)
	if got := len(p.OptOuts()); got != 1 {
		t.Fatalf("opt-outs = %d", got)
	}
	// The opt-out feeds the scanner's exclusion list.
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{netmodel.MustParsePrefix("91.198.4.0/23")}, p.OptOuts())
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumBlocks() != 1 {
		t.Errorf("excluded block still targeted: %d blocks", ts.NumBlocks())
	}
	// Rejections.
	if resp := post(`{"prefix": "10.0.0.0/8"}`); resp.StatusCode != http.StatusBadRequest {
		t.Error("blanket /8 opt-out accepted")
	}
	if resp := post(`{"prefix": "garbage"}`); resp.StatusCode != http.StatusBadRequest {
		t.Error("garbage prefix accepted")
	}
	if resp, _ := http.Get(srv.URL + "/opt-out"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Error("GET opt-out allowed")
	}
}

func TestBlockDataRequiresToken(t *testing.T) {
	_, srv := testPortal(t)
	resp, _ := http.Get(srv.URL + "/data/blocks?month=0")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless access status = %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/data/blocks?month=0&token=researcher-token")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var recs []BlockRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 { // block 1 has no responses and is omitted
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Block != "91.198.4.0/24" || recs[0].EverActive != 25 {
		t.Errorf("record = %+v", recs[0])
	}
	if recs[0].RoutedPct != 100 {
		t.Errorf("routed pct = %f", recs[0].RoutedPct)
	}
	// Out-of-range month.
	resp, _ = http.Get(srv.URL + "/data/blocks?month=99&token=researcher-token")
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("bad month accepted")
	}
}

func TestAnonymizedResponsiveness(t *testing.T) {
	p, srv := testPortal(t)
	resp, err := http.Get(srv.URL + "/data/responsiveness?block=91.198.4.0/24&month=0&token=researcher-token")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []RespRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 25 {
		t.Fatalf("records = %d, want 25 ever-active", len(recs))
	}
	seen := map[string]bool{}
	for _, rec := range recs {
		if len(rec.AnonIP) != 24 {
			t.Fatalf("pseudonym %q has wrong length", rec.AnonIP)
		}
		if strings.Contains(rec.AnonIP, ".") {
			t.Fatal("pseudonym leaks dotted quads")
		}
		if seen[rec.AnonIP] {
			t.Fatal("pseudonym collision")
		}
		seen[rec.AnonIP] = true
	}
	// Stable mapping within the portal.
	a := netmodel.MustParseAddr("91.198.4.1")
	if p.AnonAddr(a) != p.AnonAddr(a) {
		t.Error("pseudonyms not stable")
	}
	// Different keys give different pseudonyms.
	other := New(nil, []byte("other-key"))
	if p.AnonAddr(a) == other.AnonAddr(a) {
		t.Error("pseudonyms independent of key")
	}
	// Unknown block.
	r2, _ := http.Get(srv.URL + "/data/responsiveness?block=10.0.0.0/24&month=0&token=researcher-token")
	if r2.StatusCode != http.StatusNotFound {
		t.Error("unknown block accepted")
	}
}

func TestAddToken(t *testing.T) {
	p, srv := testPortal(t)
	resp, _ := http.Get(srv.URL + "/data/blocks?month=0&token=late-arrival")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatal("unapproved token accepted")
	}
	p.AddToken("late-arrival")
	resp, _ = http.Get(srv.URL + "/data/blocks?month=0&token=late-arrival")
	if resp.StatusCode != http.StatusOK {
		t.Error("approved token rejected")
	}
}

// paginatedPortal builds a portal over enough active blocks to need several
// /data/blocks pages.
func paginatedPortal(t *testing.T, blocks int) (*Portal, *httptest.Server) {
	t.Helper()
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(0, 1, 0), 12*time.Hour)
	ids := make([]netmodel.BlockID, blocks)
	for i := range ids {
		ids[i] = netmodel.MustParseBlock(net4(i))
	}
	store := dataset.NewStore(tl, ids)
	for bi := 0; bi < blocks; bi++ {
		for r := 0; r < tl.NumRounds(); r++ {
			store.SetRound(bi, r, 1+bi%20, true)
		}
	}
	p := New(store, []byte("k"), "tok")
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

func net4(i int) string {
	return "10." + strconv.Itoa(i/256) + "." + strconv.Itoa(i%256) + ".0/24"
}

func TestBlocksPagination(t *testing.T) {
	_, srv := paginatedPortal(t, 25)
	fetch := func(q string) ([]BlockRecord, *http.Response) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/data/blocks?month=0&token=tok" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d for %q", resp.StatusCode, q)
		}
		var recs []BlockRecord
		if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
			t.Fatal(err)
		}
		return recs, resp
	}

	full, resp := fetch("") // 25 < default cap: single page
	if len(full) != 25 || resp.Header.Get("X-Total") != "25" {
		t.Fatalf("full export: %d records, X-Total=%s", len(full), resp.Header.Get("X-Total"))
	}

	// Walking limit/offset pages reconstructs the full export exactly.
	var walked []BlockRecord
	for off := 0; ; off += 10 {
		page, resp := fetch("&limit=10&offset=" + strconv.Itoa(off))
		if resp.Header.Get("X-Limit") != "10" || resp.Header.Get("X-Offset") != strconv.Itoa(off) {
			t.Fatalf("page headers: limit=%s offset=%s", resp.Header.Get("X-Limit"), resp.Header.Get("X-Offset"))
		}
		walked = append(walked, page...)
		if len(page) < 10 {
			break
		}
	}
	if len(walked) != len(full) {
		t.Fatalf("walked %d records, full export has %d", len(walked), len(full))
	}
	for i := range full {
		if walked[i] != full[i] {
			t.Fatalf("record %d differs between paged and full export", i)
		}
	}

	// Rejections.
	for _, q := range []string{"&limit=0", "&limit=-3", "&limit=x", "&offset=-1", "&offset=x"} {
		resp, _ := http.Get(srv.URL + "/data/blocks?month=0&token=tok" + q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q accepted with status %d", q, resp.StatusCode)
		}
	}
}

func TestBlocksDefaultCap(t *testing.T) {
	_, srv := paginatedPortal(t, DefaultBlocksLimit+40)
	resp, err := http.Get(srv.URL + "/data/blocks?month=0&token=tok")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []BlockRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != DefaultBlocksLimit {
		t.Fatalf("uncapped response: %d records, want %d", len(recs), DefaultBlocksLimit)
	}
	if got := resp.Header.Get("X-Total"); got != strconv.Itoa(DefaultBlocksLimit+40) {
		t.Fatalf("X-Total = %s", got)
	}
}

// blockSource feeds a serve entity one /24's raw timeline: routedness as BGP,
// full-block activity as FBS, the responsive count as IPS.
type blockSource struct {
	st *dataset.Store
	bi int
}

func (b blockSource) Sample(r int) (bgp, fbs, ips float32, missing bool) {
	if b.st.EffectiveMissingAt(r, 0.8) {
		return 0, 0, 0, true
	}
	if b.st.Routed(b.bi, r) {
		bgp = 1
	}
	if resp := b.st.Resp(b.bi, r); resp > 0 {
		fbs, ips = 1, float32(resp)
	}
	return bgp, fbs, ips, false
}

func (blockSource) IPSValidMonth(int) bool { return false }

func TestAttachServe(t *testing.T) {
	p, srv := testPortal(t)
	tls := serve.NewStore(p.store.Timeline())
	if _, err := tls.Register("block", "91.198.4.0", blockSource{p.store, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tls.AdvanceTo(p.store.Timeline().NumRounds()); err != nil {
		t.Fatal(err)
	}
	p.AttachServe(serve.NewServer(tls))

	// Token gate applies to the mounted API.
	resp, _ := http.Get(srv.URL + "/data/v1/series?entity=block/91.198.4.0")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless serve access status = %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/data/v1/series?entity=block/91.198.4.0&token=researcher-token")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("serve access status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Entity string    `json:"entity"`
		Count  int       `json:"count"`
		IPS    []float32 `json:"ips"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Entity != "block/91.198.4.0" || out.Count == 0 || out.IPS[0] != 25 {
		t.Fatalf("serve payload wrong: %+v", out)
	}
}

// TestTokenCheckZeroAlloc pins the research-access gate on the portal's
// hottest route: finding ?token= in a /data/v1 query and checking it
// allocates nothing, where parsing the query into url.Values cost six
// allocations per request.
func TestTokenCheckZeroAlloc(t *testing.T) {
	p := New(nil, []byte("k"), "researcher-token")
	served := 0
	gate := p.withToken(func(http.ResponseWriter, *http.Request) { served++ })
	req := httptest.NewRequest("GET", "/data/v1/series?entity=asn/6877&from=1646172000&until=1646776800&token=researcher-token", nil)
	w := httptest.NewRecorder()
	if allocs := testing.AllocsPerRun(100, func() { gate(w, req) }); allocs != 0 {
		t.Errorf("token check allocates %.1f objects per request, want 0", allocs)
	}
	if served != 101 {
		t.Fatalf("gate passed %d of 101 requests", served)
	}
}

// hitWriter is a ResponseWriter that keeps nothing, for allocation counts.
type hitWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *hitWriter) Header() http.Header         { return w.h }
func (w *hitWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *hitWriter) WriteHeader(code int)        { w.status = code }

// TestPortalHitAllocs: a token-gated /data/v1 cache hit through the portal
// allocates what it does through the serve API directly, nothing, while a
// path the mux would clean still goes through the mux and its redirect.
func TestPortalHitAllocs(t *testing.T) {
	p, _ := testPortal(t)
	tls := serve.NewStore(p.store.Timeline())
	if _, err := tls.Register("block", "91.198.4.0", blockSource{p.store, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tls.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	s := serve.NewServer(tls)
	p.AttachServe(s)

	const url = "/data/v1/series?entity=block/91.198.4.0&limit=40&token=researcher-token"
	req := httptest.NewRequest("GET", url, nil)
	w := &hitWriter{h: make(http.Header)}
	p.ServeHTTP(w, req)
	if w.status != 0 || w.n == 0 {
		t.Fatalf("GET %s: status %d, %d bytes", url, w.status, w.n)
	}
	for _, h := range []struct {
		name string
		h    http.Handler
	}{{"portal", p}, {"serve", s}} {
		allocs := testing.AllocsPerRun(100, func() {
			clear(w.h)
			w.n = 0
			h.h.ServeHTTP(w, req)
		})
		if allocs != 0 || w.n == 0 {
			t.Errorf("%s: a cache hit allocates %.1f objects (%d bytes served), want 0", h.name, allocs, w.n)
		}
	}

	for _, path := range []string{"/data/v1//series", "/data/v1/./series", "/data/v1/x/../series", "/data/v1/series/.."} {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest("GET", path+"?entity=block/91.198.4.0&token=researcher-token", nil))
		if rec.Code != http.StatusMovedPermanently {
			t.Errorf("GET %s = %d, want the mux's redirect to the clean path", path, rec.Code)
		}
	}
}
