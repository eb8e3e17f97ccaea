package serve

import (
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"countrymon/internal/obs"
	"countrymon/internal/query"
	"countrymon/internal/signals"
)

// Pagination bounds for /v1/series round windows.
const (
	// DefaultSeriesLimit is the page size when the client omits ?limit.
	DefaultSeriesLimit = 2048
	// MaxSeriesLimit is the hard per-page cap; larger ?limit values clamp.
	MaxSeriesLimit = 8192
)

// Server is the HTTP query API over a serve.Store:
//
//	/v1/entities               registered entities (?type= filter)
//	/v1/series                 columnar signal window for one entity
//	                           (?entity=, ?from=/?until= unix seconds,
//	                           ?since=N delta mode, ?limit=/?offset=)
//	/v1/outages                detected outage events for one entity
//	/v1/events                 live SSE / long-poll fan-out (obs bus)
//	/metrics                   registry export
//
// Every JSON response is a cached resource (see Handle): rendered once per
// (query, store state) and re-served from its bytes. Responses whose round
// window is pinned entirely inside sealed history are immutable — strong
// ETag, `Cache-Control: immutable`, never re-rendered — while live-edge
// responses are epoch-tagged and invalidate when a round lands. The cached
// path re-serves bytes without allocating.
type Server struct {
	store *Store
	bus   *obs.Bus
	reg   *obs.Registry

	// routes maps a full path ("/v1/series") to its handler; resources are
	// the cached ones among them, kept so Observe can resolve their
	// request counters.
	routes    map[string]http.HandlerFunc
	resources []*resource

	// Pre-resolved metric children: the hot path must not pay CounterVec
	// label resolution per request. All nil (and nil-safe) until Observe.
	reqEvents              *obs.Counter
	cacheHits, cacheMisses *obs.Counter
	watermarkG             *obs.Gauge
	liveClients            *obs.Gauge
}

// Render appends a cached resource's response body for one raw query string
// to dst and returns it; dst is scratch space that the server copies the body
// out of, once, into the cache entry. A nil body is an error, answered with
// status and {"error": msg}. An immutable body must be a function of the
// query and of sealed cells only: it is cached forever and served under
// `Cache-Control: immutable`. Any other body is valid for the store epoch the
// request observed.
type Render func(dst []byte, rawQuery string) (body []byte, immutable bool, status int, msg string)

// resource is one cached JSON endpoint: a renderer and the rendered-bytes
// cache in front of it, keyed by raw query.
type resource struct {
	endpoint string // serve_requests_total label
	render   Render
	cache    *respCache
	requests *obs.Counter // nil (and nil-safe) until Observe
}

// NewServer builds the query API over store.
func NewServer(store *Store) *Server {
	s := &Server{store: store, routes: make(map[string]http.HandlerFunc)}
	s.Handle("/v1/series", "series", s.renderSeries)
	s.Handle("/v1/outages", "outages", s.renderOutages)
	s.Handle("/v1/entities", "entities", s.renderEntities)
	s.routes["/v1/events"] = s.handleEvents
	s.routes["/metrics"] = func(w http.ResponseWriter, r *http.Request) {
		obs.MetricsHandler(s.reg).ServeHTTP(w, r)
	}
	return s
}

// Handle mounts one more cached JSON resource at path, counted as
// serve_requests_total{endpoint}. Call it before Observe and before the
// server takes requests.
func (s *Server) Handle(path, endpoint string, render Render) {
	res := &resource{endpoint: endpoint, render: render, cache: newRespCache()}
	s.resources = append(s.resources, res)
	s.routes[path] = func(w http.ResponseWriter, r *http.Request) { s.serveResource(res, w, r) }
}

// Store returns the underlying timeline store.
func (s *Server) Store() *Store { return s.store }

// ServeHTTP implements http.Handler. A route matches the tail of the path,
// so a Server mounted under a prefix (the portal's /data) is handed the
// caller's own request rather than a copy with the prefix stripped:
// handlers read only the raw query and the headers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	for {
		if h := s.routes[path]; h != nil {
			h(w, r)
			return
		}
		i := strings.IndexByte(strings.TrimPrefix(path, "/"), '/')
		if i < 0 {
			break
		}
		path = path[i+1:]
	}
	s.handleIndex(w, r)
}

// Observe registers the serving metrics and attaches the live event bus:
// bus drops are mirrored into bus_dropped_events_total so slow-subscriber
// pressure shows up in /metrics.
func (s *Server) Observe(reg *obs.Registry, bus *obs.Bus) {
	s.reg = reg
	s.bus = bus
	req := reg.CounterVec("serve_requests_total", "Serve-API requests, by endpoint.", "endpoint")
	for _, res := range s.resources {
		res.requests = req.With(res.endpoint)
	}
	s.reqEvents = req.With("events")
	s.cacheHits = reg.Counter("serve_cache_hits_total", "Serve responses answered from the rendered-bytes cache.")
	s.cacheMisses = reg.Counter("serve_cache_misses_total", "Serve responses that had to be rendered.")
	s.watermarkG = reg.Gauge("serve_watermark", "Sealed rounds visible to the serve API.")
	s.liveClients = reg.Gauge("serve_live_clients", "Currently connected /v1/events clients.")
	bus.CountDrops(reg.Counter("bus_dropped_events_total", "Events dropped from lagging event-bus subscriber channels (the ring retains them)."))
	s.watermarkG.Set(int64(s.store.Watermark()))
}

// serveResource is the one get-or-render path: a hit re-serves the cached
// bytes, a miss renders at the epoch read before rendering, so an entry can
// only ever be tagged older than its content, never newer.
func (s *Server) serveResource(res *resource, w http.ResponseWriter, r *http.Request) {
	res.requests.Inc()
	key := r.URL.RawQuery
	epoch := s.store.epoch.Load()
	e := res.cache.get(key, epoch)
	if e != nil {
		s.cacheHits.Inc()
	} else {
		s.cacheMisses.Inc()
		scratch := renderScratch.Get().(*[]byte)
		body, immutable, status, msg := res.render((*scratch)[:0], key)
		if body == nil {
			renderScratch.Put(scratch)
			writeError(w, status, msg)
			return
		}
		e = newEntry(body, key, immutable, epoch)
		*scratch = body[:0]
		renderScratch.Put(scratch)
		res.cache.put(e)
	}
	writeEntry(w, r, e)
}

// renderScratch holds the buffers renders append to. A body grows there, and
// newEntry copies it out at its final size, so a render allocates its body
// once whatever its length, and a cached body holds no spare capacity.
var renderScratch = sync.Pool{New: func() any { return new([]byte) }}

// --- /v1/series ---

func (s *Server) renderSeries(dst []byte, rawQuery string) ([]byte, bool, int, string) {
	ent, status, msg := s.queryEntity(rawQuery)
	if ent == nil {
		return nil, false, status, msg
	}
	limit, ok := intParam(rawQuery, "limit", DefaultSeriesLimit)
	if !ok || limit <= 0 {
		return nil, false, http.StatusBadRequest, "invalid limit"
	}
	if limit > MaxSeriesLimit {
		limit = MaxSeriesLimit
	}
	offset, ok := intParam(rawQuery, "offset", 0)
	if !ok || offset < 0 {
		return nil, false, http.StatusBadRequest, "invalid offset"
	}
	tl := s.store.tl

	// Window selection, before looking at the watermark: either delta mode
	// (?since=N → all sealed rounds from N on) or a time range. A ?until
	// that lands inside sealed history pins the window — only then can the
	// response be immutable.
	sinceRound := -1
	if v := query.Get(rawQuery, "since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, false, http.StatusBadRequest, "invalid since"
		}
		sinceRound = n
	}
	fromRound := 0
	if v := query.Get(rawQuery, "from"); v != "" {
		sec, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, false, http.StatusBadRequest, "invalid from"
		}
		fromRound = tl.Round(time.Unix(sec, 0))
	}
	untilRound := -1
	if v := query.Get(rawQuery, "until"); v != "" {
		sec, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, false, http.StatusBadRequest, "invalid until"
		}
		untilRound = tl.Round(time.Unix(sec, 0))
	}

	var body []byte
	var immutable bool
	s.store.Snapshot(func(wm int) {
		s.watermarkG.Set(int64(wm))
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

		// Immutable only when the window is pinned in sealed history AND the
		// months it touches are complete: IPS month validity still firms up
		// while a month's rounds are landing.
		immutable = pinned
		if end > start {
			_, mhi := tl.MonthRounds(tl.MonthOfRound(end - 1))
			immutable = pinned && mhi <= wm
		}
		// An immutable body may not embed live state: it reports the pinned
		// window's own bound where a live one reports the watermark, so the
		// same query renders the same bytes at every later watermark.
		if immutable {
			wm = hi
		}
		body = appendSeriesJSON(dst, s.store, ent, wm, total, offset, limit, start, end)
	})
	return body, immutable, 0, ""
}

// appendSeriesJSON renders the series body of rounds [start, end) under the
// store's read lock. Most of it is copied bytes: the time column from the
// store, where Advance formatted each round once, and every float cell that
// repeats the one before it from the body itself.
func appendSeriesJSON(b []byte, st *Store, e *Entity, wm, total, offset, limit, start, end int) []byte {
	tl := st.tl
	b = append(b, `{"entity":`...)
	b = strconv.AppendQuote(b, e.Key)
	b = append(b, `,"watermark":`...)
	b = strconv.AppendInt(b, int64(wm), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, `,"limit":`...)
	b = strconv.AppendInt(b, int64(limit), 10)
	b = append(b, `,"start_round":`...)
	b = strconv.AppendInt(b, int64(start), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(end-start), 10)
	b = append(b, `,"time":[`...)
	b = st.appendTimes(b, start, end)
	b = append(b, `],"bgp":[`...)
	b = appendFloatCol(b, e.bgp[start:end])
	b = append(b, `],"fbs":[`...)
	b = appendFloatCol(b, e.fbs[start:end])
	b = append(b, `],"ips":[`...)
	b = appendFloatCol(b, e.ips[start:end])
	b = append(b, `],"missing":[`...)
	for r := start; r < end; r++ {
		if r > start {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, e.missing[r])
	}
	b = append(b, `],"ips_valid":[`...)
	// One month's rounds share a validity: a run at a time.
	for r := start; r < end; {
		m := tl.MonthOfRound(r)
		_, hi := tl.MonthRounds(m)
		valid := e.ipsValid[m]
		for ; r < min(hi, end); r++ {
			if r > start {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, valid)
		}
	}
	b = append(b, `]}`...)
	return b
}

// appendFloatCol is the one float-cell formatter. A cell whose bits equal the
// previous cell's copies that cell's bytes (a series is mostly runs: counts
// that hold from round to round); comparing bits, not values, keeps a -0
// after a 0 from printing as 0, and lets a NaN repeat. Other cells are mostly
// counts, and a whole number in [1, 999999] prints as its digits under 'g'
// (exponent form starts at 1e6): those skip AppendFloat's shortest-float
// search.
func appendFloatCol(b []byte, vals []float32) []byte {
	var prev uint32
	from, to := 0, 0 // the previous cell's bytes in b
	for i, v := range vals {
		bits := math.Float32bits(v)
		if i > 0 {
			b = append(b, ',')
			if bits == prev {
				b = append(b, b[from:to]...)
				continue
			}
		}
		from = len(b)
		if n := int64(v); v >= 1 && v <= 999999 && float32(n) == v {
			b = strconv.AppendInt(b, n, 10)
		} else {
			b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
		}
		to, prev = len(b), bits
	}
	return b
}

// --- /v1/outages ---

func (s *Server) renderOutages(dst []byte, rawQuery string) ([]byte, bool, int, string) {
	ent, status, msg := s.queryEntity(rawQuery)
	if ent == nil {
		return nil, false, status, msg
	}
	det := s.store.Detection(ent)
	tl := s.store.tl
	wm := len(det.Flags)
	b := append(dst, `{"entity":`...)
	b = strconv.AppendQuote(b, ent.Key)
	b = append(b, `,"watermark":`...)
	b = strconv.AppendInt(b, int64(wm), 10)
	b = append(b, `,"outages":[`...)
	for i, o := range det.Outages {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"start_round":`...)
		b = strconv.AppendInt(b, int64(o.Start), 10)
		b = append(b, `,"end_round":`...)
		b = strconv.AppendInt(b, int64(o.End), 10)
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, tl.Time(o.Start).Unix(), 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, tl.Time(o.End-1).Add(tl.Interval()).Unix(), 10)
		b = append(b, `,"signals":`...)
		b = strconv.AppendQuote(b, kindToken(o.Signals))
		b = append(b, `,"ongoing":`...)
		b = strconv.AppendBool(b, o.Ongoing)
		b = append(b, '}')
	}
	b = append(b, `]}`...)
	// Outage detection spans the whole sealed prefix, so the response always
	// tracks the watermark: mutable tier.
	return b, false, 0, ""
}

// --- /v1/entities ---

func (s *Server) renderEntities(dst []byte, rawQuery string) ([]byte, bool, int, string) {
	if !query.Valid(rawQuery) {
		return nil, false, http.StatusBadRequest, "malformed query"
	}
	typ := query.Get(rawQuery, "type")
	b := dst
	s.store.Snapshot(func(wm int) {
		s.watermarkG.Set(int64(wm))
		b = append(b, `{"watermark":`...)
		b = strconv.AppendInt(b, int64(wm), 10)
		b = append(b, `,"entities":[`...)
		n := 0
		for _, key := range s.store.order {
			e := s.store.entities[key]
			if typ != "" && e.Type != typ {
				continue
			}
			if n > 0 {
				b = append(b, ',')
			}
			n++
			b = append(b, `{"key":`...)
			b = strconv.AppendQuote(b, e.Key)
			b = append(b, `,"type":`...)
			b = strconv.AppendQuote(b, e.Type)
			b = append(b, `,"code":`...)
			b = strconv.AppendQuote(b, e.Code)
			b = append(b, '}')
		}
		b = append(b, `],"count":`...)
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, '}')
	})
	return b, false, 0, ""
}

// --- /v1/events ---

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.reqEvents.Inc()
	s.liveClients.Add(1)
	defer s.liveClients.Add(-1)
	obs.EventsHandler(s.bus).ServeHTTP(w, r)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "countrymon serving API")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "  /v1/entities?type=asn            registered entities")
	fmt.Fprintln(w, "  /v1/series?entity=asn/6877       columnar signals (&from=&until= unix,")
	fmt.Fprintln(w, "                                   &since=N delta, &limit=&offset= rounds)")
	fmt.Fprintln(w, "  /v1/outages?entity=region/Kyiv   detected outage events")
	fmt.Fprintln(w, "  /v1/events                       live SSE (?since=N replay, ?format=json long-poll)")
	fmt.Fprintln(w, "  /metrics                         Prometheus text (?format=json)")
}

// --- shared helpers ---

// queryEntity resolves the ?entity= of a series or outages query, or says
// why it cannot: a malformed query, a missing parameter, an unknown key.
func (s *Server) queryEntity(rawQuery string) (*Entity, int, string) {
	if !query.Valid(rawQuery) {
		return nil, http.StatusBadRequest, "malformed query"
	}
	key := query.Get(rawQuery, "entity")
	if ent := s.store.Entity(key); ent != nil {
		return ent, 0, ""
	}
	if key == "" {
		return nil, http.StatusBadRequest, "missing entity parameter"
	}
	return nil, http.StatusNotFound, "unknown entity " + key
}

// castagnoli is the CRC-32C table: its checksum runs on the CPU's CRC32
// instruction where there is one, as the IEEE one runs on carry-less
// multiplication.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// etagOf is a body's ETag digest: its CRC-32C in the high word and its IEEE
// CRC-32 in the low one. Both run a word or more at a time, take no key and
// no seed, so the tag of a body is the same in every process and replica.
func etagOf(body []byte) uint64 {
	return uint64(crc32.Checksum(body, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(body))
}

// newEntry builds the cache entry for a rendered body in three allocations:
// the entry, the body copied out of the render's scratch buffer, and one
// string holding the ETag and then the cache key (the key usually aliases a
// request's URL buffer, so the entry keeps its own copy).
func newEntry(scratch []byte, key string, immutable bool, epoch uint64) *cacheEntry {
	var buf [128]byte
	b := append(buf[:0], '"')
	b = strconv.AppendUint(b, etagOf(scratch), 16)
	b = append(b, '"')
	n := len(b)
	etagKey := string(append(b, key...))
	e := &cacheEntry{
		body:      append(make([]byte, 0, len(scratch)), scratch...),
		key:       etagKey[n:],
		immutable: immutable,
		epoch:     epoch,
	}
	e.etag[0] = etagKey[:n]
	return e
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b := []byte(`{"error":`)
	b = strconv.AppendQuote(b, msg)
	b = append(b, '}')
	w.Write(b)
}

func intParam(rawQuery, name string, def int) (int, bool) {
	v := query.Get(rawQuery, name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

// kindToken renders a signal mask as a compact API token ("bgp+fbs") —
// ASCII, unlike Kind.String's display glyphs.
func kindToken(k signals.Kind) string {
	var parts [3]string
	n := 0
	if k.Has(signals.SignalBGP) {
		parts[n] = "bgp"
		n++
	}
	if k.Has(signals.SignalFBS) {
		parts[n] = "fbs"
		n++
	}
	if k.Has(signals.SignalIPS) {
		parts[n] = "ips"
		n++
	}
	if n == 0 {
		return "none"
	}
	return strings.Join(parts[:n], "+")
}
