package par

import (
	"sync"
	"sync/atomic"
	"testing"
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
