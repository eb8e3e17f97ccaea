// Package portal implements the measurement campaign's public web presence
// and data-access policy (Appendix A / "Unique Full Block Dataset"):
//
//   - an information page describing the measurements, with contact details
//     and a self-service opt-out (the campaign received exactly one);
//   - opt-outs feed the scanner's exclusion list, ZMap-blocklist style;
//   - gated research access: block-level availability data for approved
//     tokens, and anonymized IP-level responsiveness (keyed one-way hashes)
//     "which avoids privacy risks while enabling meaningful analysis".
package portal

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/query"
	"countrymon/internal/serve"
)

// Portal is the campaign's HTTP front end.
type Portal struct {
	store   *dataset.Store
	anonKey []byte

	mu      sync.RWMutex
	optOuts []netmodel.Prefix
	tokens  map[string]bool

	mux *http.ServeMux
	// data is the token-gated serve API AttachServe mounted at dataPrefix,
	// dispatched before the mux (nil until then).
	data http.HandlerFunc

	// Observability (see Observe): per-endpoint request counters and the
	// event bus opt-outs are announced on. All nil-safe.
	bus       *obs.Bus
	reqInfo   *obs.Counter
	reqOptOut *obs.Counter
	reqBlocks *obs.Counter
	reqResp   *obs.Counter
}

// New builds a portal over the campaign's dataset. anonKey keys the one-way
// address anonymization; tokens are the approved research-access tokens.
func New(store *dataset.Store, anonKey []byte, tokens ...string) *Portal {
	p := &Portal{
		store:   store,
		anonKey: append([]byte(nil), anonKey...),
		tokens:  make(map[string]bool, len(tokens)),
		mux:     http.NewServeMux(),
	}
	for _, t := range tokens {
		p.tokens[t] = true
	}
	p.mux.HandleFunc("/", p.handleInfo)
	p.mux.HandleFunc("/opt-out", p.handleOptOut)
	p.mux.HandleFunc("/data/blocks", p.withToken(p.handleBlocks))
	p.mux.HandleFunc("/data/responsiveness", p.withToken(p.handleResponsiveness))
	return p
}

// ServeHTTP implements http.Handler. A request for the attached serve API
// whose path the mux would serve as it stands goes straight to it: the mux
// would find the same handler, after building the path's trailing-slash
// variant to probe for a redirect, on every request.
func (p *Portal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.data != nil {
		if path := r.URL.EscapedPath(); strings.HasPrefix(path, dataPrefix) && canonical(path) {
			p.data(w, r)
			return
		}
	}
	p.mux.ServeHTTP(w, r)
}

// canonical reports whether cleaning leaves a rooted path as it is, the
// trailing slash aside; the mux redirects any other path to its clean form.
func canonical(path string) bool {
	return !strings.Contains(path, "//") && !strings.Contains(path, "/./") && !strings.Contains(path, "/../") &&
		!strings.HasSuffix(path, "/.") && !strings.HasSuffix(path, "/..")
}

// Observe mounts the observability endpoints — /metrics (Prometheus text or
// JSON) and /events (SSE or long-poll) — on the portal and starts counting
// requests per endpoint as portal_requests_total{endpoint}. Opt-outs are
// announced on bus. Call once, before serving; either argument may be nil
// (the corresponding endpoint then answers 503).
func (p *Portal) Observe(reg *obs.Registry, bus *obs.Bus) {
	v := reg.CounterVec("portal_requests_total",
		"Portal HTTP requests by endpoint.", "endpoint")
	p.bus = bus
	p.reqInfo = v.With("info")
	p.reqOptOut = v.With("opt-out")
	p.reqBlocks = v.With("blocks")
	p.reqResp = v.With("responsiveness")
	p.mux.Handle("/metrics", obs.MetricsHandler(reg))
	p.mux.Handle("/events", obs.EventsHandler(bus))
}

// OptOuts returns the exclusion list to feed scanner target sets.
func (p *Portal) OptOuts() []netmodel.Prefix {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]netmodel.Prefix(nil), p.optOuts...)
}

// AddToken approves a research-access token.
func (p *Portal) AddToken(token string) {
	p.mu.Lock()
	p.tokens[token] = true
	p.mu.Unlock()
}

func (p *Portal) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	p.reqInfo.Inc()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "countrymon measurement campaign")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "This host sends a single ICMP echo request to each address of the")
	fmt.Fprintln(w, "monitored ranges once per probing round, rate limited and randomized,")
	fmt.Fprintln(w, "to study Internet availability. No payload data is collected.")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "Opt out:  POST /opt-out  {\"prefix\": \"a.b.c.0/24\"}")
	fmt.Fprintln(w, "Research access to block-level data can be requested from the operators;")
	fmt.Fprintln(w, "IP-level responsiveness is only released in anonymized form.")
}

func (p *Portal) handleOptOut(w http.ResponseWriter, r *http.Request) {
	p.reqOptOut.Inc()
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON body {\"prefix\": ...}", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Prefix string `json:"prefix"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON", http.StatusBadRequest)
		return
	}
	pre, err := netmodel.ParsePrefix(req.Prefix)
	if err != nil {
		http.Error(w, "bad prefix", http.StatusBadRequest)
		return
	}
	if pre.Bits < 16 {
		// A single opt-out cannot blanket large swathes of address space.
		http.Error(w, "opt-out prefixes must be /16 or longer", http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	dup := false
	for _, existing := range p.optOuts {
		if existing == pre {
			dup = true
			break
		}
	}
	if !dup {
		p.optOuts = append(p.optOuts, pre)
	}
	p.mu.Unlock()
	if !dup && p.bus != nil {
		p.bus.Publish("opt_out", map[string]any{"prefix": pre.String()})
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "excluded %v from future probing rounds\n", pre)
}

func (p *Portal) withToken(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := query.Get(r.URL.RawQuery, "token")
		p.mu.RLock()
		ok := p.tokens[token]
		p.mu.RUnlock()
		if !ok {
			http.Error(w, "access to the dataset requires an approved token", http.StatusForbidden)
			return
		}
		h(w, r)
	}
}

// AttachServe mounts the production read path under the portal: the serve
// query API (series, outages, entities, live events) becomes reachable at
// /data/v1/... behind the same research-access token as the raw exports.
// The server matches routes on the path's tail, so it takes the request as
// it arrived. Call it before serving.
func (p *Portal) AttachServe(s *serve.Server) {
	p.data = p.withToken(s.ServeHTTP)
	p.mux.Handle(dataPrefix, p.data)
}

// dataPrefix is where AttachServe mounts the serve API.
const dataPrefix = "/data/v1/"

// Pagination bounds for the /data/blocks export.
const (
	// DefaultBlocksLimit is the page size when ?limit is absent. The
	// export previously returned every qualifying block in one response;
	// a full campaign month is tens of thousands of rows, so unbounded
	// responses invited accidental multi-hundred-MB transfers.
	DefaultBlocksLimit = 1000
	// MaxBlocksLimit clamps explicit ?limit values.
	MaxBlocksLimit = 10000
)

// BlockRecord is one row of the block-level availability export.
type BlockRecord struct {
	Block      string  `json:"block"`
	Month      string  `json:"month"`
	EverActive int     `json:"ever_active"`
	MeanResp   float64 `json:"mean_responsive"`
	RoutedPct  float64 `json:"routed_pct"`
}

func (p *Portal) handleBlocks(w http.ResponseWriter, r *http.Request) {
	p.reqBlocks.Inc()
	tl := p.store.Timeline()
	raw := r.URL.RawQuery
	month := 0
	if v, err := strconv.Atoi(query.Get(raw, "month")); err == nil {
		month = v
	}
	if month < 0 || month >= tl.NumMonths() {
		http.Error(w, "month out of range", http.StatusBadRequest)
		return
	}
	limit := DefaultBlocksLimit
	if v := query.Get(raw, "limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
			return
		}
		limit = min(n, MaxBlocksLimit)
	}
	offset := 0
	if v := query.Get(raw, "offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "offset must be a non-negative integer", http.StatusBadRequest)
			return
		}
		offset = n
	}
	// The response body stays a bare JSON array (clients predate the
	// pagination); the page bookkeeping travels in headers. Qualifying
	// blocks are indexed in stable store order, so walking offset +=
	// limit reconstructs the exact full export.
	total := 0
	recs := make([]BlockRecord, 0, min(limit, p.store.NumBlocks()))
	for bi, blk := range p.store.Blocks() {
		st := p.store.MonthStats(bi, month)
		if st.EverActive == 0 {
			continue
		}
		idx := total
		total++
		if idx < offset || len(recs) >= limit {
			continue
		}
		routed := 0.0
		if st.MeasuredRounds > 0 {
			routed = 100 * float64(st.RoutedRounds) / float64(st.MeasuredRounds)
		}
		recs = append(recs, BlockRecord{
			Block:      blk.String(),
			Month:      tl.MonthLabel(month),
			EverActive: st.EverActive,
			MeanResp:   st.MeanResp,
			RoutedPct:  routed,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Total", strconv.Itoa(total))
	w.Header().Set("X-Limit", strconv.Itoa(limit))
	w.Header().Set("X-Offset", strconv.Itoa(offset))
	_ = json.NewEncoder(w).Encode(recs)
}

// AnonAddr returns the keyed one-way pseudonym of an address. The mapping
// is stable within a portal instance (so longitudinal analysis works) but
// cannot be reversed without the key.
func (p *Portal) AnonAddr(a netmodel.Addr) string {
	mac := hmac.New(sha256.New, p.anonKey)
	b := a.Bytes()
	mac.Write(b[:])
	return hex.EncodeToString(mac.Sum(nil)[:12])
}

// RespRecord is one row of the anonymized IP-level export.
type RespRecord struct {
	AnonIP string `json:"anon_ip"`
	Month  string `json:"month"`
	// ActiveRank orders a block's addresses by responsiveness without
	// exposing which concrete address is which.
	ActiveRank int `json:"active_rank"`
}

func (p *Portal) handleResponsiveness(w http.ResponseWriter, r *http.Request) {
	p.reqResp.Inc()
	tl := p.store.Timeline()
	raw := r.URL.RawQuery
	blk, err := netmodel.ParseBlock(query.Get(raw, "block"))
	if err != nil {
		http.Error(w, "block parameter must be a /24", http.StatusBadRequest)
		return
	}
	bi := p.store.BlockIndex(blk)
	if bi < 0 {
		http.Error(w, "block not in the dataset", http.StatusNotFound)
		return
	}
	month := 0
	if v, err := strconv.Atoi(query.Get(raw, "month")); err == nil {
		month = v
	}
	if month < 0 || month >= tl.NumMonths() {
		http.Error(w, "month out of range", http.StatusBadRequest)
		return
	}
	st := p.store.MonthStats(bi, month)
	recs := make([]RespRecord, 0, st.EverActive)
	for rank := 0; rank < st.EverActive; rank++ {
		// Under the nested observation model the month's ever-active set
		// is its top-ranked addresses; export them pseudonymously, sorted
		// by pseudonym so the export order leaks nothing either.
		recs = append(recs, RespRecord{
			AnonIP:     p.AnonAddr(blk.Addr(uint8(rank))),
			Month:      tl.MonthLabel(month),
			ActiveRank: rank,
		})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].AnonIP < recs[j].AnonIP })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(recs)
}
