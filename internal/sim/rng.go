package sim

import (
	"sync/atomic"

	"countrymon/internal/netmodel"
)

// liveOrderCache lazily computes each block's host liveness ranking: a
// permutation of 0..255 per block, derived from the scenario seed. Rank 0 is
// the "most alive" host; host h responds in a round iff rank(h) < count.
// Every probe consults it, from the wire server's goroutines and the
// parallel Trinocular fan-out alike, so a table is published once through an
// atomic pointer and read with one load. Two goroutines racing to fill the
// same slot build identical tables; either store wins.
type liveOrderCache struct {
	seed   uint64
	blocks []netmodel.BlockID           // Space.Blocks(): block index → block
	ranks  []atomic.Pointer[[256]uint8] // by block index, nil until first use
}

func newLiveOrderCache(seed uint64, blocks []netmodel.BlockID) liveOrderCache {
	return liveOrderCache{seed: seed, blocks: blocks, ranks: make([]atomic.Pointer[[256]uint8], len(blocks))}
}

// rank returns the liveness rank of a host of the block at index bi.
func (c *liveOrderCache) rank(bi int, host uint8) uint8 {
	r := c.ranks[bi].Load()
	if r == nil {
		r = c.build(c.blocks[bi])
		c.ranks[bi].Store(r)
	}
	return r[host]
}

func (c *liveOrderCache) build(block netmodel.BlockID) *[256]uint8 {
	// Sort hosts by hash; equal hashes are impossible to matter (ties are
	// broken by host number for determinism).
	type hk struct {
		h    uint64
		host uint8
	}
	var keys [256]hk
	for i := 0; i < 256; i++ {
		keys[i] = hk{h: netmodel.Hash3(c.seed, uint64(block), uint64(i)), host: uint8(i)}
	}
	// Insertion sort on 256 elements is fine and allocation-free.
	for i := 1; i < 256; i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && (keys[j].h > k.h || (keys[j].h == k.h && keys[j].host > k.host)) {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
	ranks := new([256]uint8)
	for pos := 0; pos < 256; pos++ {
		ranks[keys[pos].host] = uint8(pos)
	}
	return ranks
}
