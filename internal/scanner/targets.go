package scanner

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"countrymon/internal/netmodel"
)

// TargetSet is the set of addresses a scan probes: the /24 blocks obtained
// by de-aggregating the input prefixes (minus exclusions), each probed in
// full. The set provides a dense index space 0..Len()-1 that the permutation
// walks; index i maps to host i%256 of block i/256.
type TargetSet struct {
	blocks []netmodel.BlockID
	index  netmodel.BlockTable
	// perm is the permutation the last scan of the set walked, kept for the
	// next scan under the same seed and length (see permutation).
	perm atomic.Pointer[Permutation]
}

// NewTargetSet builds the target set from prefixes, excluding any /24 that
// overlaps one of the excluded prefixes (ZMap blacklist semantics).
func NewTargetSet(prefixes []netmodel.Prefix, exclude []netmodel.Prefix) (*TargetSet, error) {
	if len(prefixes) == 0 {
		return nil, errors.New("scanner: no target prefixes")
	}
	var blocks []netmodel.BlockID
	for _, p := range prefixes {
		blocks = p.Blocks(blocks)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	out := blocks[:0]
	var last netmodel.BlockID
	first := true
	for _, b := range blocks {
		if !first && b == last {
			continue
		}
		if blockExcluded(b, exclude) {
			continue
		}
		out = append(out, b)
		last, first = b, false
	}
	if len(out) == 0 {
		return nil, errors.New("scanner: all targets excluded")
	}
	return &TargetSet{blocks: out, index: netmodel.IndexBlocks(out)}, nil
}

// Refill makes t the set of blocks, as a set built from their /24s would be,
// reusing t's block list and index instead of building new ones. blocks must
// be sorted and duplicate-free, as every TargetSet's are; exclusions are the
// caller's to have applied. A zero TargetSet is empty until it is refilled.
// Refill must not run while t is being scanned.
func (t *TargetSet) Refill(blocks []netmodel.BlockID) error {
	if len(blocks) == 0 {
		return errors.New("scanner: no target blocks")
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i] <= blocks[i-1] {
			return fmt.Errorf("scanner: target blocks not sorted and distinct at %d (%v after %v)", i, blocks[i], blocks[i-1])
		}
	}
	t.blocks = append(t.blocks[:0], blocks...)
	t.index.Reindex(t.blocks)
	// The kept permutation is re-derived for the new length in place, under
	// its seed: every scan of a set asks for one seed, so the next scan finds
	// it ready and nothing is allocated. No scan holds it now.
	if pm := t.perm.Load(); pm != nil && pm.n != t.Len() {
		if fresh, err := newPermutation(t.Len(), pm.seed); err == nil {
			*pm = fresh
		} else {
			t.perm.Store(nil)
		}
	}
	return nil
}

// permutation returns the permutation of t's targets under seed. A campaign
// scans one set under one seed every round, so the last one built is kept
// and handed to every scan that asks for the same seed (a Permutation
// depends on nothing else but the set's length, which Refill keeps it
// matched to). A Permutation is read-only while scans run, so concurrent
// shard scans share it; two scans that race to build it build the same one.
func (t *TargetSet) permutation(seed uint64) (*Permutation, error) {
	if pm := t.perm.Load(); pm != nil && pm.seed == seed {
		return pm, nil
	}
	pm, err := NewPermutation(t.Len(), seed)
	if err != nil {
		return nil, err
	}
	t.perm.Store(pm)
	return pm, nil
}

func blockExcluded(b netmodel.BlockID, exclude []netmodel.Prefix) bool {
	bp := netmodel.Prefix{Base: b.First(), Bits: 24}
	for _, e := range exclude {
		if e.Overlaps(bp) {
			return true
		}
	}
	return false
}

// Len returns the number of probe targets (blocks × 256).
func (t *TargetSet) Len() uint64 { return uint64(len(t.blocks)) * netmodel.BlockSize }

// NumBlocks returns the number of /24 blocks.
func (t *TargetSet) NumBlocks() int { return len(t.blocks) }

// Blocks returns the sorted block list. Callers must not mutate it.
func (t *TargetSet) Blocks() []netmodel.BlockID { return t.blocks }

// Addr maps a dense target index to its address.
func (t *TargetSet) Addr(i uint64) netmodel.Addr {
	return t.blocks[i/netmodel.BlockSize].Addr(uint8(i % netmodel.BlockSize))
}

// BlockIndex returns the dense block index of the block containing a, or -1
// if a is not a target.
func (t *TargetSet) BlockIndex(a netmodel.Addr) int { return t.index.Index(a.Block()) }
