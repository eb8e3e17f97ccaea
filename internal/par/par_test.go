package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 97, 1000} {
			hits := make([]int32, n)
			ForEachN(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d processed %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestMapOrdersResults(t *testing.T) {
	got := Map(257, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Setenv(EnvWorkers, "1")
	seq := Map(500, func(i int) int { return i * 3 })
	t.Setenv(EnvWorkers, "8")
	parl := Map(500, func(i int) int { return i * 3 })
	for i := range seq {
		if seq[i] != parl[i] {
			t.Fatalf("index %d differs across worker counts", i)
		}
	}
}

func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv(EnvWorkers, "3")
	if w := Workers(); w != 3 {
		t.Fatalf("Workers() = %d with %s=3", w, EnvWorkers)
	}
	t.Setenv(EnvWorkers, "banana")
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d with malformed env, want GOMAXPROCS fallback", w)
	}
}

func TestCacheComputesOncePerKey(t *testing.T) {
	var c Cache[int, int]
	var computes atomic.Int32
	const callers = 32
	var wg sync.WaitGroup
	wg.Add(callers)
	results := make([]int, callers)
	for g := 0; g < callers; g++ {
		go func() {
			defer wg.Done()
			results[g] = c.Get(7, func() int {
				computes.Add(1)
				return 99
			})
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key, want exactly 1", n)
	}
	for g, v := range results {
		if v != 99 {
			t.Fatalf("caller %d got %d, want 99", g, v)
		}
	}
	if c.Get(8, func() int { return 1 }) != 1 || c.Len() != 2 {
		t.Fatalf("second key mis-cached; len = %d", c.Len())
	}
}

// TestWarmForEachNAllocatesNothing: a warm call with a hoisted fn wakes
// parked helpers from a recycled call, so it allocates nothing.
func TestWarmForEachNAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	var sum atomic.Int64
	fn := func(i int) { sum.Add(int64(i)) }
	ForEachN(4, 64, fn) // starts the helpers a call of four needs
	if allocs := testing.AllocsPerRun(100, func() { ForEachN(4, 64, fn) }); allocs != 0 {
		t.Fatalf("a warm ForEachN allocates %.2f objects, want 0", allocs)
	}
}

// TestNestedForEachFinishes nests calls four deep, whose widths together
// ask for far more helpers than the widest call can start, and runs three
// such trees at once: a call that finds no free helper runs on its caller,
// so every tree finishes and every index runs once.
func TestNestedForEachFinishes(t *testing.T) {
	const trees, outer, inner, leaf = 3, 4, 8, 16
	var hits [trees][outer][inner][leaf]atomic.Int32
	done := make(chan struct{})
	go func() {
		ForEachN(trees, trees, func(a int) {
			ForEachN(outer, outer, func(b int) {
				ForEachN(inner, inner, func(c int) {
					ForEachN(leaf, leaf, func(d int) { hits[a][b][c][d].Add(1) })
				})
			})
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("nested ForEachN calls did not finish: deadlock")
	}
	for a := range hits {
		for b := range hits[a] {
			for c := range hits[a][b] {
				for d := range hits[a][b][c] {
					if h := hits[a][b][c][d].Load(); h != 1 {
						t.Fatalf("index (%d, %d, %d, %d) ran %d times", a, b, c, d, h)
					}
				}
			}
		}
	}
}

// TestForEachRunsIndicesAtOnce: with COUNTRYMON_WORKERS=2, the two indices
// of a ForEach are in flight together, each waiting a while for the other.
// A call that recruits no helper runs them one after the other, and the
// wait times out in every attempt. One attempt is not enough, because a
// call's width is best-effort: the helper an earlier test's call woke may
// not be parked again yet, and then this call runs on its caller alone.
// The test fails only when all ten attempts run on their caller alone.
func TestForEachRunsIndicesAtOnce(t *testing.T) {
	t.Setenv(EnvWorkers, "2")
	for attempt := 0; attempt < 10; attempt++ {
		var inFlight atomic.Int32
		var met atomic.Bool
		ForEach(2, func(int) {
			defer inFlight.Add(-1)
			inFlight.Add(1)
			for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline) && !met.Load(); runtime.Gosched() {
				if inFlight.Load() == 2 {
					met.Store(true)
				}
			}
		})
		if met.Load() {
			return
		}
	}
	t.Fatal("the two indices of a two-worker ForEach never ran at once")
}

// TestForEachKeepsNoReferenceToFn: an object only fn captures is collected
// by the first GC after the call returns, so neither a parked helper nor the
// pooled call state keeps a finished call's fn, or what it holds, alive.
func TestForEachKeepsNoReferenceToFn(t *testing.T) {
	collected := make(chan struct{})
	runCapturing(collected)
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("an object captured only by fn outlived its ForEachN call")
	}
}

// runCapturing runs a four-worker ForEachN whose fn captures a fresh object
// with a finalizer that closes collected.
//
//go:noinline
func runCapturing(collected chan struct{}) {
	obj := new([64]int64)
	runtime.SetFinalizer(obj, func(*[64]int64) { close(collected) })
	ForEachN(4, 64, func(i int) { atomic.AddInt64(&obj[i], 1) })
}

// TestHelpersBounded: a thousand calls of four workers leave at most three
// more goroutines than there were, all of them parked helpers, and grow the
// helpers only up to the call's width minus one.
func TestHelpersBounded(t *testing.T) {
	before, helpersBefore := runtime.NumGoroutine(), helpers.Load()
	for k := 0; k < 1000; k++ {
		ForEachN(4, 16, func(int) {})
	}
	if g := runtime.NumGoroutine(); g > before+3 {
		t.Fatalf("%d goroutines after 1 000 calls of four workers, %d before", g, before)
	}
	if h := helpers.Load(); h > max(helpersBefore, 3) {
		t.Fatalf("%d helpers after calls of four workers, %d before", h, helpersBefore)
	}
}
