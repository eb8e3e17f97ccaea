package scanner

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPermutationIsPermutation(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 10, 255, 256, 257, 1000, 65536} {
		pm, err := NewPermutation(n, 42)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := make([]bool, n)
		c := pm.Iterate()
		count := uint64(0)
		for {
			v, ok := c.Next()
			if !ok {
				break
			}
			if v >= n {
				t.Fatalf("n=%d: out-of-range value %d", n, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate value %d", n, v)
			}
			seen[v] = true
			count++
		}
		if count != n {
			t.Fatalf("n=%d: emitted %d values", n, count)
		}
	}
}

func TestPermutationSeedsDiffer(t *testing.T) {
	const n = 4096
	collect := func(seed uint64) []uint64 {
		pm, err := NewPermutation(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		c := pm.Iterate()
		for {
			v, ok := c.Next()
			if !ok {
				return out
			}
			out = append(out, v)
		}
	}
	a, b := collect(1), collect(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > n/16 {
		t.Errorf("seeds 1 and 2 agree on %d/%d positions", same, n)
	}
	// Same seed must reproduce exactly.
	c := collect(1)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same seed produced different order")
		}
	}
}

func TestPermutationScattersBlocks(t *testing.T) {
	// Consecutive emissions should rarely hit the same /24 (i.e. the same
	// 256-bucket), which is the ethics rationale for the permutation.
	const n = 256 * 64
	pm, err := NewPermutation(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := pm.Iterate()
	prev, adjacentSameBlock := uint64(0), 0
	first := true
	for {
		v, ok := c.Next()
		if !ok {
			break
		}
		if !first && v/256 == prev/256 {
			adjacentSameBlock++
		}
		prev, first = v, false
	}
	if adjacentSameBlock > n/32 {
		t.Errorf("%d/%d consecutive probes hit the same /24", adjacentSameBlock, n)
	}
}

func TestShardsPartition(t *testing.T) {
	const n = 10007
	pm, err := NewPermutation(n, 9)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	seen := make([]int, n)
	total := 0
	for s := 0; s < shards; s++ {
		c, err := pm.IterateShard(s, shards)
		if err != nil {
			t.Fatal(err)
		}
		for {
			v, ok := c.Next()
			if !ok {
				break
			}
			seen[v]++
			total++
		}
	}
	if total != n {
		t.Fatalf("shards emitted %d values, want %d", total, n)
	}
	for v, k := range seen {
		if k != 1 {
			t.Fatalf("value %d emitted %d times", v, k)
		}
	}
}

func TestShardValidation(t *testing.T) {
	pm, _ := NewPermutation(100, 1)
	if _, err := pm.IterateShard(2, 2); err == nil {
		t.Error("shard index == shards accepted")
	}
	if _, err := pm.IterateShard(-1, 2); err == nil {
		t.Error("negative shard accepted")
	}
	if _, err := pm.IterateShard(0, 0); err == nil {
		t.Error("zero shards accepted")
	}
}

func TestNewPermutationRejects(t *testing.T) {
	if _, err := NewPermutation(0, 1); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestIsPrime(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 4294967311, 1000003}
	composites := []uint64{0, 1, 4, 9, 4294967310, 1000001}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d) = false", p)
		}
	}
	for _, c := range composites {
		if isPrime(c) {
			t.Errorf("isPrime(%d) = true", c)
		}
	}
}

func TestPrimeAbove(t *testing.T) {
	cases := map[uint64]uint64{0: 3, 1: 3, 2: 3, 3: 5, 4: 5, 10: 11, 4294967296: 4294967311}
	for n, want := range cases {
		if got := primeAbove(n); got != want {
			t.Errorf("primeAbove(%d) = %d, want %d", n, got, want)
		}
	}
}

// trialFactors is the textbook trial division primeFactors is checked
// against: every q from 2 up, no wheel.
func trialFactors(n uint64) []uint64 {
	var fs []uint64
	for q := uint64(2); q*q <= n; q++ {
		if n%q == 0 {
			fs = append(fs, q)
			for n%q == 0 {
				n /= q
			}
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// TestPrimeFactorsMatchesTrialDivision over [2, 10⁶], the p-1 of every
// prime the benchmark's target sets and the 2³² boundary reach, and the
// uint64s with the most distinct prime factors there are.
func TestPrimeFactorsMatchesTrialDivision(t *testing.T) {
	check := func(n uint64) {
		fs, k := primeFactors(n)
		if got, want := fs[:k], trialFactors(n); !slices.Equal(got, want) {
			t.Fatalf("primeFactors(%d) = %v, want %v", n, got, want)
		}
	}
	for n := uint64(2); n <= 1e6; n++ {
		check(n)
	}
	for _, p := range []uint64{257, 769, 1031, 1283, 1543, 1801, 2053, 2309, 2579, 2819, 3079, 3329,
		3593, 3847, 4099, 4357, 4621, 4871, 5147, 5381, 5639, 5897, 10007, 10243, 10499, 11027, 12289,
		24593, 65537, 1<<32 - 5, 4294967311} {
		if primeAbove(p-1) != p {
			t.Fatalf("%d is not the prime above %d", p, p-1)
		}
		check(p - 1)
	}
	primorial15 := uint64(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47)
	for _, n := range []uint64{primorial15, primorial15 * 2, primorial15 * 29} {
		check(n)
		if fs, k := primeFactors(n); k != 15 || fs[14] != 47 {
			t.Fatalf("primeFactors(%d) = %v", n, fs[:k])
		}
	}
}

func TestMulmodMatchesBigWhenSmall(t *testing.T) {
	f := func(a, b uint32, m uint32) bool {
		if m == 0 {
			m = 1
		}
		return mulmod(uint64(a), uint64(b), uint64(m)) == uint64(a)*uint64(b)%uint64(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulmodLargeOperands(t *testing.T) {
	// Known case with operands > 2^32 where naive multiply would overflow.
	const p = uint64(18446744073709551557) // largest 64-bit prime
	a, b := p-1, p-1
	// (p-1)^2 mod p == 1
	if got := mulmod(a, b, p); got != 1 {
		t.Errorf("mulmod((p-1)^2 mod p) = %d, want 1", got)
	}
}

// mulmodThreeDivisions is mulmod as it was before the cursor's step dropped
// the two operand reductions: the reference for the equality sweep.
func mulmodThreeDivisions(a, b, m uint64) uint64 {
	a %= m
	b %= m
	if a < 1<<32 && b < 1<<32 {
		return a * b % m
	}
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, m)
}

func TestMulmodReducedMatchesMulmod(t *testing.T) {
	// Every pair of residues of the small primes a toy permutation uses.
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 251, 257} {
		for a := uint64(0); a < p; a++ {
			for b := uint64(0); b < p; b++ {
				want := mulmodThreeDivisions(a, b, p)
				if got := mulmodReduced(a, b, p); got != want {
					t.Fatalf("mulmodReduced(%d, %d, %d) = %d, want %d", a, b, p, got, want)
				}
				if got := mulmod(a+p, b+3*p, p); got != want {
					t.Fatalf("mulmod(%d, %d, %d) = %d, want %d", a+p, b+3*p, p, got, want)
				}
			}
		}
	}
	// Random 64-bit operands and moduli on both sides of the 32-bit
	// fast-path boundary: mulmod keeps its contract for unreduced operands,
	// and the reduced form agrees once they are reduced.
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 200000; i++ {
		a, b, m := rng.Uint64(), rng.Uint64(), rng.Uint64()
		switch i % 4 {
		case 1:
			m >>= 32
		case 2:
			m >>= 31
		case 3:
			a, b, m = a>>30, b>>33, m>>29
		}
		if m == 0 {
			m = 1
		}
		want := mulmodThreeDivisions(a, b, m)
		if got := mulmod(a, b, m); got != want {
			t.Fatalf("mulmod(%d, %d, %d) = %d, want %d", a, b, m, got, want)
		}
		if got := mulmodReduced(a%m, b%m, m); got != want {
			t.Fatalf("mulmodReduced(%d, %d, %d) = %d, want %d", a%m, b%m, m, got, want)
		}
	}
}

func TestPowmod(t *testing.T) {
	// Fermat: a^(p-1) == 1 mod p.
	const p = 1000003
	for _, a := range []uint64{2, 3, 999999} {
		if got := powmod(a, p-1, p); got != 1 {
			t.Errorf("powmod(%d, p-1, p) = %d", a, got)
		}
	}
}

// refStep is the group walk's step as it was before it multiplied by a
// reciprocal — mulmodReduced, verbatim — and refWalk the order it gives: the
// whole cycle, of which a shard takes every shards-th emitted index.
func refStep(a, b, m uint64) uint64 {
	if a|b < 1<<32 {
		return a * b % m
	}
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, m)
}

func refWalk(pm *Permutation, shard, shards int) []uint64 {
	var out []uint64
	cur := pm.first
	for emitted := 0; uint64(emitted) < pm.n; {
		v := cur
		cur = refStep(cur, pm.g, pm.p)
		if v-1 < pm.n {
			if emitted%shards == shard {
				out = append(out, v-1)
			}
			emitted++
		}
	}
	return out
}

func TestStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	check := func(pm *Permutation, cur, g uint64) {
		t.Helper()
		pm.g = g
		if got, want := pm.step(cur), refStep(cur, g, pm.p); got != want {
			t.Fatalf("step(%d) with g=%d, p=%d = %d, reference %d", cur, g, pm.p, got, want)
		}
	}
	// Every residue of every prime below 2 000, against generators at both
	// ends of the range and a few inside it.
	for n := uint64(1); n < 1999; n++ {
		if !isPrime(n + 1) {
			continue
		}
		pm, err := NewPermutation(n, n)
		if err != nil {
			t.Fatal(err)
		}
		p := pm.p
		for _, g := range []uint64{1, 2, p - 2, p - 1, pm.g, 1 + rng.Uint64()%(p-1), 1 + rng.Uint64()%(p-1)} {
			for cur := uint64(1); cur < p; cur++ {
				check(pm, cur, g)
			}
		}
	}
	// Primes just below 2³², where the product nearly fills the word, the
	// largest of them (2³²−5), and the first prime above, which keeps Rem64.
	domains := []uint64{1<<32 - 6, 1 << 32}
	for i := 0; i < 48; i++ {
		domains = append(domains, 1<<32-6-rng.Uint64()%(1<<20))
	}
	for i, n := range domains {
		pm, err := NewPermutation(n, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		p := pm.p
		if (pm.inv != 0) != (p < 1<<32) {
			t.Fatalf("p=%d: inv=%d", p, pm.inv)
		}
		for _, cur := range []uint64{1, 2, p - 2, p - 1} {
			for _, g := range []uint64{1, 2, p - 2, p - 1, pm.g} {
				check(pm, cur, g)
			}
		}
		for k := 0; k < 200; k++ {
			check(pm, 1+rng.Uint64()%(p-1), 1+rng.Uint64()%(p-1))
		}
	}
	if p := primeAbove(1<<32 - 6); p != 1<<32-5 {
		t.Fatalf("primeAbove(2³²−6) = %d, want 2³²−5", p)
	}
}

func TestWalkMatchesReference(t *testing.T) {
	for _, n := range []uint64{1, 2, 256 /* = p−1 */, 1000, 24576, 65536 /* = p−1 */} {
		for _, seed := range []uint64{1, 42, 7919} {
			pm, err := NewPermutation(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 3, 7} {
				seen := make([]int, n)
				for shard := 0; shard < shards; shard++ {
					c, err := pm.IterateShard(shard, shards)
					if err != nil {
						t.Fatal(err)
					}
					want := refWalk(pm, shard, shards)
					if len(want) != ShardLen(n, shard, shards) {
						t.Fatalf("n=%d shard %d/%d: reference emits %d, ShardLen %d", n, shard, shards, len(want), ShardLen(n, shard, shards))
					}
					var got []uint64
					for v, ok := c.Next(); ok; v, ok = c.Next() {
						got = append(got, v)
						seen[v]++
					}
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d seed=%d shard %d/%d: walk of %d indices differs from the reference's %d", n, seed, shard, shards, len(got), len(want))
					}
				}
				for v, k := range seen {
					if k != 1 {
						t.Fatalf("n=%d seed=%d, %d shards: index %d emitted %d times", n, seed, shards, v, k)
					}
				}
			}
		}
	}
}

// BenchmarkCursorWalk walks campaign_chaos's target set (96 blocks) once per
// iteration, whole and as the first of three shards, which steps through the
// other two shards' indices as well; ns/index is per emitted index.
func BenchmarkCursorWalk(b *testing.B) {
	for _, shards := range []int{1, 3} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pm, err := NewPermutation(96*256, 1)
			if err != nil {
				b.Fatal(err)
			}
			var sum, emitted uint64
			for i := 0; i < b.N; i++ {
				c, _ := pm.IterateShard(0, shards)
				for v, ok := c.Next(); ok; v, ok = c.Next() {
					sum += v
					emitted++
				}
			}
			walkSink = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(emitted), "ns/index")
		})
	}
}

var walkSink uint64
