// Package par is the deterministic worker-pool layer behind the analysis
// pipeline's hot paths (store generation, classification, signal building,
// the Trinocular baseline, per-entity detection).
//
// Determinism contract: every helper assigns each index to exactly one
// worker and collects results by index, so as long as the per-index function
// is a pure function of its index (plus immutable shared state) and writes
// only state owned by that index, the outcome is identical at any worker
// count — including 1 — and across repeated runs. Scheduling only changes
// *when* an index is processed, never *what* it computes or where the result
// lands. Aggregations that are order-sensitive (floating-point sums) must
// happen in the ordered collection step, not inside workers.
//
// The pool width defaults to GOMAXPROCS and can be pinned with the
// COUNTRYMON_WORKERS environment variable (useful for the determinism tests
// and for single-core reference runs).
package par

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable that pins the pool width.
const EnvWorkers = "COUNTRYMON_WORKERS"

var workersWarnOnce sync.Once

// Workers resolves the pool width: COUNTRYMON_WORKERS when set to a positive
// integer, otherwise GOMAXPROCS. A malformed value is reported on stderr
// once and then ignored rather than silently shrinking the pool.
func Workers() int {
	if v := os.Getenv(EnvWorkers); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
		workersWarnOnce.Do(func() {
			fmt.Fprintf(os.Stderr, "countrymon: ignoring %s=%q (want a positive integer)\n", EnvWorkers, os.Getenv(EnvWorkers))
		})
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) across Workers() goroutines and
// returns when all calls are done. fn must only write state owned by index i
// (see the package determinism contract).
func ForEach(n int, fn func(i int)) { ForEachN(Workers(), n, fn) }

// ForEachN is ForEach with an explicit worker count. workers ≤ 1 (or tiny n)
// runs inline, which is the sequential reference the determinism tests
// compare against.
func ForEachN(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Dynamic batched stealing: an atomic cursor hands out contiguous index
	// batches, balancing uneven per-index work (e.g. blocks with very
	// different event counts) while keeping cache locality within a batch.
	batch := n / (workers * 8)
	if batch < 1 {
		batch = 1
	}
	p := &pool{n: n, batch: batch, fn: fn}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.run()
	}
	p.work() // the calling goroutine is the last worker
	p.wg.Wait()
}

// pool is one ForEachN call's shared state, held in one object so that a
// call allocates it and one closure per goroutine it starts.
type pool struct {
	cursor   atomic.Int64
	wg       sync.WaitGroup
	n, batch int
	fn       func(i int)
}

func (p *pool) run() {
	defer p.wg.Done()
	p.work()
}

// work runs fn over index batches until the cursor passes n.
func (p *pool) work() {
	for {
		lo := int(p.cursor.Add(int64(p.batch))) - p.batch
		if lo >= p.n {
			return
		}
		for i, hi := lo, min(lo+p.batch, p.n); i < hi; i++ {
			p.fn(i)
		}
	}
}

// Map runs fn across [0, n) on the pool and returns the results in index
// order, so order-sensitive reductions can run over the returned slice.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// Cache is a concurrency-safe memoization map with per-key once semantics:
// concurrent Get calls for the same key block until a single compute call
// finishes, so duplicated work between lookup and fill (the classic
// check-then-compute race) cannot happen. The zero value is ready to use.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	once sync.Once
	v    V
}

// Get returns the cached value for key, computing it exactly once across all
// concurrent callers. compute must not call Get for the same key (it would
// deadlock on its own once).
func (c *Cache[K, V]) Get(key K, compute func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[V])
	}
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
}

// Len returns the number of cached keys (including any being computed).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
