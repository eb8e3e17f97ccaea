package netmodel

import "math/bits"

// BlockTable maps the /24 blocks of a sorted list to their positions in it
// (and, inside a Space, to their origin AS). It is one flat array of slots,
// a power of two long and at most half full, addressed by a multiplicative
// hash of the block and probed linearly: a lookup is a multiply, a shift and
// on average well under two slot compares, with nothing to chase. A table is
// filled by the constructor that returns it and never written afterwards,
// which is all concurrent readers need.
type BlockTable struct {
	slots []blockSlot
	shift uint8 // 32 − log2(len(slots))
}

// blockSlot is one table entry; pos is the block's position plus one, so the
// zero slot is an empty one and block 0 needs no sentinel.
type blockSlot struct {
	block  BlockID
	pos    int32
	origin ASN
}

// newBlockTable returns an empty table with room for n blocks at a load of
// at most one half, so a probe always ends at an empty slot.
func newBlockTable(n int) BlockTable {
	log := bits.Len(uint(max(2*n, 2) - 1)) // len(slots) = 2^log ≥ 2n
	return BlockTable{slots: make([]blockSlot, 1<<log), shift: uint8(32 - log)}
}

// IndexBlocks builds the table of a duplicate-free block list: blocks[i] maps
// to i.
func IndexBlocks(blocks []BlockID) BlockTable {
	t := newBlockTable(len(blocks))
	for i, b := range blocks {
		*t.find(b) = blockSlot{block: b, pos: int32(i) + 1}
	}
	return t
}

// find returns b's slot, or the empty slot b would be put in. The multiplier
// is 2³²/φ (Fibonacci hashing): consecutive blocks, which is what a prefix
// de-aggregates to, land far apart.
func (t *BlockTable) find(b BlockID) *blockSlot {
	for i := uint32(b) * 0x9e3779b1 >> t.shift; ; i++ {
		if sl := &t.slots[i&uint32(len(t.slots)-1)]; sl.pos == 0 || sl.block == b {
			return sl
		}
	}
}

// Index returns the position of b in the indexed list, or -1.
func (t *BlockTable) Index(b BlockID) int { return int(t.find(b).pos) - 1 }
