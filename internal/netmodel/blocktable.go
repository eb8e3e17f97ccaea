package netmodel

import "math/bits"

// BlockTable maps the /24 blocks of a sorted list to their positions in it
// (and, inside a Space, to their origin AS). It is one flat array of slots,
// a power of two long and at most half full, addressed by a multiplicative
// hash of the block and probed linearly: a lookup is a multiply, a shift and
// on average well under two slot compares, with nothing to chase. A table is
// written only by the constructor that returns it and by Reindex, never while
// anyone reads it, which is all concurrent readers need.
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

// tableLog is log2 of the slot count a table of n blocks needs: the least
// power of two ≥ 2n, so the load is at most one half and a probe always ends
// at an empty slot.
func tableLog(n int) int { return bits.Len(uint(max(2*n, 2) - 1)) }

// newBlockTable returns an empty table with room for n blocks.
func newBlockTable(n int) BlockTable {
	log := tableLog(n)
	return BlockTable{slots: make([]blockSlot, 1<<log), shift: uint8(32 - log)}
}

// IndexBlocks builds the table of a duplicate-free block list: blocks[i] maps
// to i.
func IndexBlocks(blocks []BlockID) BlockTable {
	var t BlockTable
	t.Reindex(blocks)
	return t
}

// Reindex makes t the table of another duplicate-free block list, as
// IndexBlocks would build it. When t's slots have the capacity the list
// needs, they are cut to its slot count, cleared and reused instead of
// reallocated, so a list that shrinks and grows back keeps its table.
func (t *BlockTable) Reindex(blocks []BlockID) {
	if log := tableLog(len(blocks)); cap(t.slots) >= 1<<log {
		t.slots, t.shift = t.slots[:1<<log], uint8(32-log)
		clear(t.slots)
	} else {
		*t = newBlockTable(len(blocks))
	}
	for i, b := range blocks {
		*t.find(b) = blockSlot{block: b, pos: int32(i) + 1}
	}
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
