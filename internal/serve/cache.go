package serve

import (
	"net/http"
	"sync"
	"sync/atomic"
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
	// referenced is set by the first hit, or when the entry replaces a
	// stale one of its key: it decides whether the key moves from the
	// cache's probation queue to its main one.
	referenced atomic.Bool
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
// under RLock — allocation-free. The cache holds at most cacheCap entries in
// two FIFOs of keys (2Q's, or S3-FIFO's without its ghost queue): a key
// enters small, the probation queue, and when small is full its oldest key
// moves on to main only if its entry was hit there and can still be served;
// otherwise it is dropped. A one-off query so stays at most smallCap inserts,
// and a key readers repeat is not pushed out of main by them. Misses
// re-render: correctness never depends on residency.
type respCache struct {
	mu      sync.RWMutex
	entries map[string]*cacheEntry // every key of small and main
	small   fifo
	main    fifo
	// epoch is the newest store epoch an entry was put at: a mutable entry
	// of an older one is stale and is not promoted.
	epoch uint64
}

const (
	cacheCap = 4096
	smallCap = cacheCap / 10
)

func newRespCache() *respCache {
	return &respCache{
		entries: make(map[string]*cacheEntry),
		small:   fifo{size: smallCap},
		main:    fifo{size: cacheCap - smallCap},
	}
}

// get returns the cached entry for key if still valid at epoch, and marks it
// referenced. Immutable entries never expire; mutable entries are valid only
// for the epoch they were rendered at. Stale entries are left in place
// (overwritten by the next put for the key) so the read path stays
// lock-upgrade-free; the mark is stored only when unset, so a hot entry's
// cache line is written once.
func (c *respCache) get(key string, epoch uint64) *cacheEntry {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e == nil || (!e.immutable && e.epoch != epoch) {
		return nil
	}
	if !e.referenced.Load() {
		e.referenced.Store(true)
	}
	return e
}

// put inserts e, rendered at the store epoch its miss read. A key already
// held (a stale entry re-rendered) keeps its place, and its re-render counts
// as a reference: the key was asked for again.
func (c *respCache) put(e *cacheEntry) {
	c.mu.Lock()
	c.epoch = max(c.epoch, e.epoch)
	if _, held := c.entries[e.key]; held {
		e.referenced.Store(true)
	} else if old, full := c.small.push(e.key); full {
		c.leaveSmall(old)
	}
	c.entries[e.key] = e
	c.mu.Unlock()
}

// leaveSmall moves key, small's oldest, on to main if its entry was hit and
// can still be served — immutable, or of the newest epoch — evicting main's
// oldest when main is full; otherwise it drops the key.
func (c *respCache) leaveSmall(key string) {
	if e := c.entries[key]; e.referenced.Load() && (e.immutable || e.epoch == c.epoch) {
		if old, full := c.main.push(key); full {
			delete(c.entries, old)
		}
		return
	}
	delete(c.entries, key)
}

// fifo is a ring of cache keys, grown up to size.
type fifo struct {
	keys []string
	next int // the oldest key, once the ring is full
	size int
}

// push appends key; when the ring is full it displaces the oldest key and
// returns it.
func (f *fifo) push(key string) (old string, full bool) {
	if len(f.keys) < f.size {
		f.keys = append(f.keys, key)
		return "", false
	}
	old = f.keys[f.next]
	f.keys[f.next] = key
	f.next = (f.next + 1) % f.size
	return old, true
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
