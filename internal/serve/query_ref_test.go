package serve

import (
	"bytes"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"
)

// refRenderSeries is renderSeries as it was when every render parsed its
// query into url.Values and allocated its own body. The code is kept as it
// was, less its comments (they stay on renderSeries); only the name and the
// helper it calls moved.
func (s *Server) refRenderSeries(rawQuery string) ([]byte, bool, int, string) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, false, http.StatusBadRequest, "malformed query"
	}
	ent := s.store.Entity(q.Get("entity"))
	if ent == nil {
		if q.Get("entity") == "" {
			return nil, false, http.StatusBadRequest, "missing entity parameter"
		}
		return nil, false, http.StatusNotFound, "unknown entity " + q.Get("entity")
	}
	limit, ok := refIntParam(q, "limit", DefaultSeriesLimit)
	if !ok || limit <= 0 {
		return nil, false, http.StatusBadRequest, "invalid limit"
	}
	if limit > MaxSeriesLimit {
		limit = MaxSeriesLimit
	}
	offset, ok := refIntParam(q, "offset", 0)
	if !ok || offset < 0 {
		return nil, false, http.StatusBadRequest, "invalid offset"
	}
	tl := s.store.tl

	sinceRound := -1
	if v := q.Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, false, http.StatusBadRequest, "invalid since"
		}
		sinceRound = n
	}
	fromRound := 0
	if v := q.Get("from"); v != "" {
		sec, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, false, http.StatusBadRequest, "invalid from"
		}
		fromRound = tl.Round(time.Unix(sec, 0))
	}
	untilRound := -1
	if v := q.Get("until"); v != "" {
		sec, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, false, http.StatusBadRequest, "invalid until"
		}
		untilRound = tl.Round(time.Unix(sec, 0))
	}

	var body []byte
	var immutable bool
	s.store.Snapshot(func(wm int) {
		lo, hi, pinned := 0, wm, false
		switch {
		case sinceRound >= 0:
			lo = min(sinceRound, wm)
		default:
			lo = min(fromRound, wm)
			if untilRound >= 0 && untilRound+1 <= wm {
				hi, pinned = untilRound+1, true
			}
		}
		if lo > hi {
			lo = hi
		}
		total := hi - lo
		start := lo + min(offset, total)
		end := min(start+limit, hi)
		immutable = pinned
		if end > start {
			_, mhi := tl.MonthRounds(tl.MonthOfRound(end - 1))
			immutable = pinned && mhi <= wm
		}
		if immutable {
			wm = hi
		}
		body = appendSeriesJSON(make([]byte, 0, 256+32*(end-start)), s.store, ent, wm, total, offset, limit, start, end)
	})
	return body, immutable, 0, ""
}

func refIntParam(q url.Values, name string, def int) (int, bool) {
	v := q.Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

// seriesQueries are /v1/series queries that take every branch of the
// parameter handling: escaped and repeated parameters, empty pairs, ';' and
// malformed escapes (in the parameter read and in one that is not), every
// invalid number, clamped limits, huge offsets, since beside a time range,
// and pinned windows in and past sealed history.
func seriesQueries(s *Server) []string {
	tl := s.store.tl
	unix := func(r int) string { return strconv.FormatInt(tl.Time(r).Unix(), 10) }
	return []string{
		"", "entity=", "entity=asn/999", "entity=asn/6877",
		"entity=asn%2F6877&limit=10&offset=2", "%65ntity=asn/6877&limit=3",
		"entity=asn/6877&entity=region/Kherson&limit=4", "entity=&entity=region/Kherson&limit=4",
		"entity=asn/6877&&&limit=3&", "entity=asn/6877;limit=3", "entity=asn/6877&x=1;2",
		"entity=%zz", "entity=asn/6877&junk=%4", "entity=asn/6877&lim%zzit=1",
		"entity=asn/6877&limit=0", "entity=asn/6877&limit=x", "entity=asn/6877&limit=+5",
		"entity=asn/6877&limit=99999", "entity=asn/6877&limit=-3", "entity=asn/6877&limit=5&limit=x",
		"entity=asn/6877&offset=-1", "entity=asn/6877&offset=9223372036854775807&since=1",
		"entity=asn/6877&since=-2", "entity=asn/6877&since=65", "entity=asn/6877&since=900",
		"entity=asn/6877&since=5&from=" + unix(10) + "&until=" + unix(20),
		"entity=asn/6877&from=notunix", "entity=asn/6877&until=notunix", "entity=asn/6877&from=",
		"entity=asn/6877&from=" + unix(3) + "&until=" + unix(40),
		"entity=region/Kherson&from=" + unix(0) + "&until=" + unix(30) + "&limit=7&offset=4",
		"entity=region/Kherson&from=" + unix(60) + "&until=" + unix(10),
		"entity=asn/6877&until=" + unix(200), "entity=asn/6877&from=-99999999999",
	}
}

func checkSeriesAgainstRef(t *testing.T, s *Server, rawQuery string) {
	t.Helper()
	// A scratch buffer with stale bytes in its capacity, as a reused one has.
	scratch := []byte(`{"stale":"scratch bytes a render must overwrite"}`)[:0]
	body, imm, status, msg := s.renderSeries(scratch, rawQuery)
	rbody, rimm, rstatus, rmsg := s.refRenderSeries(rawQuery)
	if !bytes.Equal(body, rbody) || (body == nil) != (rbody == nil) || imm != rimm || status != rstatus || msg != rmsg {
		t.Fatalf("query %q:\n got %v %d %q %.80s\nwant %v %d %q %.80s", rawQuery, imm, status, msg, body, rimm, rstatus, rmsg, rbody)
	}
}

// TestRenderSeriesMatchesRef holds renderSeries, which reads its query in
// place, to the url.Values render it replaced: same body bytes, tier,
// status and message on every query of seriesQueries.
func TestRenderSeriesMatchesRef(t *testing.T) {
	s, _ := newTestServer(t, 70)
	for _, q := range seriesQueries(s) {
		checkSeriesAgainstRef(t, s, q)
	}
}

// FuzzRenderSeriesMatchesRef is TestRenderSeriesMatchesRef on arbitrary
// query strings.
func FuzzRenderSeriesMatchesRef(f *testing.F) {
	s, _ := newTestServer(f, 70)
	for _, q := range seriesQueries(s) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) { checkSeriesAgainstRef(t, s, rawQuery) })
}
