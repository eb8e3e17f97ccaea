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
//
// The calling goroutine is one of the workers; the others are parked
// helpers, which the call wakes rather than starts (see helpers). A call
// recruits only helpers that are idle now and waits only for those, so a
// ForEach nested inside fn, or run beside another, never deadlocks: with no
// helper free it runs on its caller alone.
//
// So workers is an upper bound, and a call's width is best-effort: a helper
// busy in another call, or one still on its way back to park after the
// previous call, is missed, and the call runs on fewer workers. Which
// worker runs an index never changes what it computes (the determinism
// contract), only how long the call takes.
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
	c := calls.Get().(*call)
	c.cursor.Store(0)
	c.n, c.batch, c.fn = n, batch, fn
	for w := 1; w < workers; w++ {
		if !c.recruit(workers - 1) {
			break
		}
	}
	c.work() // the calling goroutine is the last worker
	c.wg.Wait()
	c.fn = nil // a pooled call keeps nothing of its caller's alive
	calls.Put(c)
}

// call is one ForEachN call's shared state. It is recycled through calls, so
// a warm call allocates nothing beyond the fn its caller passes.
type call struct {
	cursor   atomic.Int64
	wg       sync.WaitGroup // one per helper that took the call
	n, batch int
	fn       func(i int)
}

var calls = sync.Pool{New: func() any { return new(call) }}

// helpers counts the process-wide helper goroutines, and idle is where each
// parks between calls. A call hands itself to a parked helper with a send
// that does not block, so it reaches only a helper that is parked right
// now. A call that finds none free starts one, as long as there are fewer
// than that call's helper count: the helpers grow to the widest call seen,
// minus one, and never exit. They are process-wide rather than owned by
// whoever calls, so a parked helper keeps no caller alive.
var (
	helpers atomic.Int32
	idle    = make(chan *call)
)

// recruit hands c to one more helper — a parked one, or a new one while
// fewer than limit exist — and reports whether it found one.
func (c *call) recruit(limit int) bool {
	c.wg.Add(1)
	select {
	case idle <- c:
		return true
	default:
	}
	for {
		h := helpers.Load()
		if int(h) >= limit {
			c.wg.Done()
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			go helper(c) // a helper started for a call takes its work first
			return true
		}
	}
}

// helper works on the call it was started for, then on every call that
// wakes it. Between calls it holds none: c is dead while it parks.
func helper(c *call) {
	for {
		c.work()
		c.wg.Done()
		c = <-idle
	}
}

// work runs fn over index batches until the cursor passes n.
func (c *call) work() {
	for {
		lo := int(c.cursor.Add(int64(c.batch))) - c.batch
		if lo >= c.n {
			return
		}
		for i, hi := lo, min(lo+c.batch, c.n); i < hi; i++ {
			c.fn(i)
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
