package bgp

import (
	"sort"
	"sync"

	"countrymon/internal/netmodel"
)

// Route is one RIB entry.
type Route struct {
	Prefix  netmodel.Prefix
	Path    []netmodel.ASN
	NextHop netmodel.Addr
	Origin  uint8
}

// OriginASN returns the route's origin AS (last path element), or 0.
func (r Route) OriginASN() netmodel.ASN {
	if len(r.Path) == 0 {
		return 0
	}
	return r.Path[len(r.Path)-1]
}

// PassesThrough reports whether the AS path traverses asn (upstream
// detection; used for the occupation rerouting analysis, §5.2).
func (r Route) PassesThrough(asn netmodel.ASN) bool {
	for _, a := range r.Path {
		if a == asn {
			return true
		}
	}
	return false
}

// RIB is a routing information base keyed by exact prefix (best-path
// selection is out of scope: a RIB keeps the latest route per prefix, one
// peer's view, which matches how RouteViews table dumps are consumed).
// It is safe for concurrent use.
type RIB struct {
	mu     sync.RWMutex
	routes map[netmodel.Prefix]Route
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	return &RIB{routes: make(map[netmodel.Prefix]Route)}
}

// Announce inserts a single route.
func (r *RIB) Announce(rt Route) {
	r.mu.Lock()
	r.routes[rt.Prefix] = rt
	r.mu.Unlock()
}

// Withdraw removes a prefix.
func (r *RIB) Withdraw(p netmodel.Prefix) {
	r.mu.Lock()
	delete(r.routes, p)
	r.mu.Unlock()
}

// Len returns the number of routes.
func (r *RIB) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.routes)
}

// Lookup returns the route for the exact prefix.
func (r *RIB) Lookup(p netmodel.Prefix) (Route, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rt, ok := r.routes[p]
	return rt, ok
}

// Routes returns a copy of all routes, sorted by prefix.
func (r *RIB) Routes() []Route {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Route, 0, len(r.routes))
	for _, rt := range r.routes {
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Base != out[j].Prefix.Base {
			return out[i].Prefix.Base < out[j].Prefix.Base
		}
		return out[i].Prefix.Bits < out[j].Prefix.Bits
	})
	return out
}

// Snapshot summarizes the RIB the way the BGP★ signal consumes it: the set
// of routed /24 blocks with their origin AS and whether their path crosses
// any of the given "suspect" upstreams (e.g. Russian ASes).
type Snapshot struct {
	BlockOrigin map[netmodel.BlockID]netmodel.ASN
	Rerouted    map[netmodel.BlockID]bool
	PerAS       map[netmodel.ASN]int // routed /24 count per origin AS
}

// Snapshot de-aggregates every route into /24 blocks. More-specific routes
// win when prefixes overlap.
func (r *RIB) Snapshot(suspectUpstreams map[netmodel.ASN]bool) *Snapshot {
	routes := r.Routes() // sorted: shorter prefixes of same base first
	// Sort by prefix length ascending so longer (more specific) prefixes are
	// applied last and win.
	sort.SliceStable(routes, func(i, j int) bool { return routes[i].Prefix.Bits < routes[j].Prefix.Bits })
	s := &Snapshot{
		BlockOrigin: make(map[netmodel.BlockID]netmodel.ASN),
		Rerouted:    make(map[netmodel.BlockID]bool),
		PerAS:       make(map[netmodel.ASN]int),
	}
	var scratch []netmodel.BlockID
	for _, rt := range routes {
		scratch = rt.Prefix.Blocks(scratch[:0])
		rer := false
		for as := range suspectUpstreams {
			if rt.PassesThrough(as) {
				rer = true
				break
			}
		}
		for _, b := range scratch {
			s.BlockOrigin[b] = rt.OriginASN()
			s.Rerouted[b] = rer
		}
	}
	for _, asn := range s.BlockOrigin {
		s.PerAS[asn]++
	}
	return s
}

// RoutedBlocks returns the number of routed /24s originated by asn.
func (s *Snapshot) RoutedBlocks(asn netmodel.ASN) int { return s.PerAS[asn] }

// BlockRouted reports whether the /24 is covered by any route.
func (s *Snapshot) BlockRouted(b netmodel.BlockID) bool {
	_, ok := s.BlockOrigin[b]
	return ok
}
