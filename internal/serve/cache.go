package serve

import (
	"net/http"
	"sync"
)

// cacheEntry is one rendered response: the exact bytes written to the wire
// plus the ETag header value assigned on every hit (direct map assignment of
// a slice over etag does not allocate; Header.Set would build a fresh
// one-element slice per request).
type cacheEntry struct {
	body []byte
	etag [1]string
	key  string // the cache key, owned by the entry
	// immutable entries cover only sealed rounds and are valid forever;
	// mutable entries are valid only while the store epoch matches.
	immutable bool
	epoch     uint64
}

// Cache-Control values for the two tiers. Immutable responses cover only
// rounds below the watermark at render time, so their bytes can never
// change; mutable responses include the live edge and must revalidate.
var (
	ccImmutable = []string{"public, max-age=31536000, immutable"}
	ccMutable   = []string{"no-cache"}
	ctJSON      = []string{"application/json"}
)

// respCache memoizes one resource's rendered responses, keyed by the raw
// query string. Lookups on the hot path are a single string-keyed map read
// under RLock — allocation-free. The cache is bounded: inserts beyond
// cacheCap evict in insertion order (misses re-render, correctness never
// depends on residency).
type respCache struct {
	mu      sync.RWMutex
	entries map[string]*cacheEntry
	keys    []string // insertion ring for eviction, grown up to cacheCap
	next    int
}

const cacheCap = 4096

func newRespCache() *respCache {
	return &respCache{entries: make(map[string]*cacheEntry)}
}

// get returns the cached entry for key if still valid at epoch. Immutable
// entries never expire; mutable entries are valid only for the epoch they
// were rendered at. Stale entries are left in place (overwritten by the
// next put for the key) so the read path stays lock-upgrade-free.
func (c *respCache) get(key string, epoch uint64) *cacheEntry {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e == nil || (!e.immutable && e.epoch != epoch) {
		return nil
	}
	return e
}

func (c *respCache) put(e *cacheEntry) {
	c.mu.Lock()
	if _, exists := c.entries[e.key]; !exists {
		if len(c.keys) < cacheCap {
			c.keys = append(c.keys, e.key)
		} else {
			delete(c.entries, c.keys[c.next])
			c.keys[c.next] = e.key
			c.next = (c.next + 1) % cacheCap
		}
	}
	c.entries[e.key] = e
	c.mu.Unlock()
}

// writeEntry emits a cached response, handling conditional revalidation.
// This is the allocation-free hot path: header values are preassigned
// slices, the body bytes are written as-is.
func writeEntry(w http.ResponseWriter, r *http.Request, e *cacheEntry) {
	h := w.Header()
	h["Etag"] = e.etag[:]
	if e.immutable {
		h["Cache-Control"] = ccImmutable
	} else {
		h["Cache-Control"] = ccMutable
	}
	if inm := r.Header["If-None-Match"]; len(inm) > 0 && inm[0] == e.etag[0] {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = ctJSON
	w.Write(e.body)
}
