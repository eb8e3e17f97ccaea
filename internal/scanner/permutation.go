// Package scanner implements a ZMap-style single-packet ICMP scanner: it
// iterates a target address space in a pseudorandom order derived from a
// cyclic multiplicative group (so probes to the same /24 are spread across
// the whole scan, as the paper's ethics appendix requires), rate-limits
// transmission with a token bucket, stamps each probe so replies can be
// validated statelessly, and aggregates per-/24-block results.
//
// The scanner is transport-agnostic: the same code path runs over the
// in-memory simulated wire (internal/simnet), a UDP tunnel for integration
// tests, or a raw socket where privileges allow.
package scanner

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"countrymon/internal/netmodel"
)

// Permutation enumerates 0..N-1 in a pseudorandom order using iteration over
// the multiplicative group modulo a prime p > N (the ZMap construction, §4.1
// of Durumeric et al. 2013). Values ≥ N produced by the group walk are
// skipped, so every index appears exactly once per cycle.
type Permutation struct {
	n     uint64 // domain size
	p     uint64 // prime > n
	g     uint64 // generator of (Z/pZ)*
	first uint64 // starting element, in [1, p-1]
	inv   uint64 // ⌊(2⁶⁴−1)/p⌋ when p < 2³² (see step), else 0
	seed  uint64 // the seed it was built from, which TargetSet.permutation matches
}

// NewPermutation builds a permutation of 0..n-1 seeded deterministically.
// Different seeds give different probe orders; the same seed reproduces a
// scan exactly.
func NewPermutation(n uint64, seed uint64) (*Permutation, error) {
	pm, err := newPermutation(n, seed)
	if err != nil {
		return nil, err
	}
	return &pm, nil
}

// newPermutation is NewPermutation by value, so a kept permutation can be
// re-derived in place.
func newPermutation(n uint64, seed uint64) (Permutation, error) {
	if n == 0 {
		return Permutation{}, errors.New("scanner: empty permutation domain")
	}
	if n >= 1<<62 {
		return Permutation{}, fmt.Errorf("scanner: domain %d too large", n)
	}
	p := primeAbove(n)
	g, err := findGenerator(p, seed)
	if err != nil {
		return Permutation{}, err
	}
	// Choose a starting point in [1, p-1] from the seed.
	first := netmodel.Mix64(seed^0x9e3779b97f4a7c15)%(p-1) + 1
	pm := Permutation{n: n, p: p, g: g, first: first, seed: seed}
	if p < 1<<32 {
		pm.inv = math.MaxUint64 / p
	}
	return pm, nil
}

// step is one step of the group walk, cur·g mod p for cur in [1, p-1]. Every
// target set short of all of IPv4 has p < 2³², where the product x fits a
// word and the division becomes a multiplication by inv: p·inv lies in
// (2⁶⁴−1−p, 2⁶⁴−1], so q = ⌊x·inv/2⁶⁴⌋ is ⌊x/p⌋ or one less, x − q·p is below
// 2p, and one conditional subtract leaves the residue itself.
func (pm *Permutation) step(cur uint64) uint64 {
	if pm.inv == 0 {
		hi, lo := bits.Mul64(cur, pm.g)
		return bits.Rem64(hi, lo, pm.p) // hi < p because cur, g < p
	}
	x := cur * pm.g
	q, _ := bits.Mul64(x, pm.inv)
	r := x - q*pm.p
	if r >= pm.p {
		r -= pm.p
	}
	return r
}

// Cursor is an iteration position within a permutation cycle.
type Cursor struct {
	pm      *Permutation
	cur     uint64
	emitted uint64
	stride  int // elements skipped after each emission (sharding)
}

// Iterate returns a cursor positioned at the start of the cycle.
func (pm *Permutation) Iterate() *Cursor {
	return &Cursor{pm: pm, cur: pm.first}
}

// reset positions c at the start of shard's part of pm's cycle, in place (a
// scan keeps its cursor by value). The cursor then emits only the indices of
// shard `shard` out of `shards` total, ZMap-style: the group walk is shared,
// and each shard takes every shards-th emitted element starting at its
// offset.
func (c *Cursor) reset(pm *Permutation, shard, shards int) error {
	if shards <= 0 || shard < 0 || shard >= shards {
		return fmt.Errorf("scanner: invalid shard %d/%d", shard, shards)
	}
	*c = Cursor{pm: pm, cur: pm.first, stride: shards - 1}
	if shard > 0 {
		c.next(shard - 1) // advance to this shard's first element
	}
	return nil
}

// Next returns the next index in the permuted order, or ok=false when the
// cycle (or this shard's part of it) is exhausted.
func (c *Cursor) Next() (uint64, bool) { return c.next(c.stride) }

// next emits the next index and walks on past the skip indices after it (the
// other shards'), or as many as the cycle still holds. It is one loop over
// locals: the walk is a chain of dependent multiplications, and a position
// kept in the Cursor between steps adds a store and a load to every link.
func (c *Cursor) next(skip int) (uint64, bool) {
	pm := c.pm
	left := pm.n - c.emitted
	if left == 0 {
		return 0, false
	}
	if uint64(skip) < left {
		left = uint64(skip) + 1
	}
	c.emitted += left
	cur, first := c.cur, uint64(0)
	for found := false; left > 0; {
		v := cur
		cur = pm.step(v)
		if v-1 < pm.n { // v in [1, p-1]; emit v-1 if < n
			if !found {
				first, found = v-1, true
			}
			left--
		} else if cur == pm.first {
			// Walked the full group without emitting n values: impossible
			// unless state was corrupted.
			return 0, false
		}
	}
	c.cur = cur
	return first, true
}

// primeAbove returns the smallest prime strictly greater than n.
func primeAbove(n uint64) uint64 {
	p := n + 1
	if p < 3 {
		return 3
	}
	if p%2 == 0 {
		p++
	}
	for !isPrime(p) {
		p += 2
	}
	return p
}

// isPrime is a deterministic Miller-Rabin test valid for all 64-bit inputs
// using the standard witness set.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, sp := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n%sp == 0 {
			return n == sp
		}
	}
	d := n - 1
	r := 0
	for d%2 == 0 {
		d /= 2
		r++
	}
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := powmod(a%n, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = mulmod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// findGenerator picks a generator of (Z/pZ)* by factoring p-1 and testing
// random candidates derived from the seed.
func findGenerator(p uint64, seed uint64) (uint64, error) {
	if p == 2 {
		return 1, nil
	}
	factors, k := primeFactors(p - 1)
	s := seed
	for tries := 0; tries < 4096; tries++ {
		s = netmodel.Mix64(s)
		g := s%(p-2) + 2 // in [2, p-1]
		ok := true
		for _, q := range factors[:k] {
			if powmod(g, (p-1)/q, p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	return 0, fmt.Errorf("scanner: no generator found for p=%d", p)
}

// primeFactors returns the distinct prime factors of n, in increasing order,
// as fs[:k], by trial division; n-1 for our primes is small enough (≤ a few
// billion) for this to be fast, and it runs once per scan. A uint64 has at
// most 15 distinct prime factors (the first 16 primes multiply past 2⁶⁴), so
// they fit an array and cost the scan no allocation.
func primeFactors(n uint64) (fs [15]uint64, k int) {
	for _, q := range [2]uint64{2, 3} {
		if n%q == 0 {
			fs[k], k = q, k+1
			for n%q == 0 {
				n /= q
			}
		}
	}
	for q := uint64(5); q*q <= n; q += 2 {
		if n%q == 0 {
			fs[k], k = q, k+1
			for n%q == 0 {
				n /= q
			}
		}
	}
	if n > 1 {
		fs[k], k = n, k+1
	}
	return fs, k
}

func mulmod(a, b, m uint64) uint64 { return mulmodReduced(a%m, b%m, m) }

// mulmodReduced is mulmod for operands already below m, which costs one
// division instead of three.
func mulmodReduced(a, b, m uint64) uint64 {
	if a|b < 1<<32 {
		return a * b % m
	}
	hi, lo := bits.Mul64(a, b)
	// hi < m because a, b < m, so Rem64 cannot panic.
	return bits.Rem64(hi, lo, m)
}

func powmod(base, exp, m uint64) uint64 {
	var res uint64 = 1
	base %= m
	for exp > 0 {
		if exp&1 == 1 {
			res = mulmod(res, base, m)
		}
		base = mulmod(base, base, m)
		exp >>= 1
	}
	return res
}
