package serve

import (
	"net/http"
	"strconv"
	"strings"
)

// Router is the multi-country front of the serve API. Each country gets its
// own Server (own Store, own response caches); the router owns the path
// namespace:
//
//	/v1/countries                  campaign listing (codes, names, watermarks)
//	/v1/countries/{cc}             one country's descriptor
//	/v1/countries/{cc}/series      that country's /v1/series (same query params)
//	/v1/countries/{cc}/outages     … and so on for outages/entities/events
//	/v1/*                          permanent alias for the default country
//	/metrics, /                    default country's handler
//
// The legacy unprefixed routes are not redirects: they dispatch into the
// default country's Server — the very same handler instance and response
// caches the prefixed path hits — so bodies, ETags and cache semantics are
// byte-identical between `/v1/series?q` and `/v1/countries/{default}/series?q`.
// (An ETag is a CRC-32C/CRC-32 pair over the body bytes alone, never the
// request path, which is what makes the aliasing free.)
type Router struct {
	order   []string           // country codes in Add order
	servers map[string]*Server // code → country server
	names   map[string]string  // code → display name
	def     string             // default country code (first Add)
}

// NewRouter builds an empty router; Add at least one country before serving.
func NewRouter() *Router {
	return &Router{
		servers: make(map[string]*Server),
		names:   make(map[string]string),
	}
}

// Add registers a country's server under its ISO code. The first country
// added becomes the default — the one the legacy unprefixed /v1 routes
// alias. Codes are case-sensitive and must be unique.
func (rt *Router) Add(code, name string, s *Server) error {
	if code == "" || s == nil {
		return errEmptyAdd
	}
	if _, dup := rt.servers[code]; dup {
		return &dupCountryError{code}
	}
	rt.order = append(rt.order, code)
	rt.servers[code] = s
	rt.names[code] = name
	if rt.def == "" {
		rt.def = code
	}
	return nil
}

// Default returns the default country code (empty until the first Add).
func (rt *Router) Default() string { return rt.def }

// Countries returns the registered codes in Add order.
func (rt *Router) Countries() []string { return append([]string(nil), rt.order...) }

// Server returns the server for code, or nil.
func (rt *Router) Server(code string) *Server { return rt.servers[code] }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if path == "/v1/countries" || path == "/v1/countries/" {
		rt.handleCountries(w)
		return
	}
	if tail, ok := strings.CutPrefix(path, "/v1/countries/"); ok {
		cc, rest, slash := strings.Cut(tail, "/")
		s := rt.servers[cc]
		if s == nil {
			writeError(w, http.StatusNotFound, "unknown country "+cc)
			return
		}
		if !slash || rest == "" {
			rt.writeCountry(w, cc)
			return
		}
		// /v1/countries/{cc}/X is that country's /v1/X: one route and one
		// response cache under both spellings, called with the caller's own
		// request — handlers read only the raw query and the headers.
		h := s.routes["/v1/"+rest]
		if h == nil {
			http.NotFound(w, r)
			return
		}
		h(w, r)
		return
	}
	if rt.def == "" {
		writeError(w, http.StatusServiceUnavailable, "no countries registered")
		return
	}
	// Legacy alias tier: everything else — /v1/series, /metrics, / — goes to
	// the default country's server untouched.
	rt.servers[rt.def].ServeHTTP(w, r)
}

// handleCountries renders the campaign listing. It is rendered fresh per
// request — the listing is tiny and changes with every watermark advance of
// any country, so caching would buy nothing.
func (rt *Router) handleCountries(w http.ResponseWriter) {
	b := append([]byte(nil), `{"default":`...)
	b = strconv.AppendQuote(b, rt.def)
	b = append(b, `,"countries":[`...)
	for i, cc := range rt.order {
		if i > 0 {
			b = append(b, ',')
		}
		b = rt.appendCountry(b, cc)
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(len(rt.order)), 10)
	b = append(b, '}')
	w.Header()["Content-Type"] = ctJSON
	w.Write(b)
}

func (rt *Router) writeCountry(w http.ResponseWriter, cc string) {
	b := rt.appendCountry(nil, cc)
	w.Header()["Content-Type"] = ctJSON
	w.Write(b)
}

func (rt *Router) appendCountry(b []byte, cc string) []byte {
	st := rt.servers[cc].Store()
	b = append(b, `{"code":`...)
	b = strconv.AppendQuote(b, cc)
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, rt.names[cc])
	b = append(b, `,"watermark":`...)
	b = strconv.AppendInt(b, int64(st.Watermark()), 10)
	b = append(b, `,"entities":`...)
	b = strconv.AppendInt(b, int64(st.NumEntities()), 10)
	b = append(b, `,"default":`...)
	b = strconv.AppendBool(b, cc == rt.def)
	b = append(b, '}')
	return b
}

type routerError string

func (e routerError) Error() string { return string(e) }

const errEmptyAdd = routerError("serve: Add needs a country code and a server")

type dupCountryError struct{ code string }

func (e *dupCountryError) Error() string { return "serve: country " + e.code + " already registered" }
