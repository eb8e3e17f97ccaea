package netmodel

import (
	"fmt"
	"sort"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the conventional "AS<number>" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// AS describes an autonomous system in the model: its number, operator name,
// the prefixes delegated to it, and (for simulation ground truth) the region
// its headquarters are in.
type AS struct {
	ASN      ASN
	Name     string
	HQ       Region // RegionNone for foreign / unknown headquarters
	Foreign  bool   // headquartered outside Ukraine (e.g. NTT, aurologic)
	Prefixes []Prefix
}

// NumBlocks returns the number of /24 blocks across all the AS's prefixes.
func (a *AS) NumBlocks() int {
	n := 0
	for _, p := range a.Prefixes {
		n += p.NumBlocks()
	}
	return n
}

// Blocks de-aggregates all of the AS's prefixes into /24 blocks, sorted and
// de-duplicated.
func (a *AS) Blocks() []BlockID {
	var bs []BlockID
	for _, p := range a.Prefixes {
		bs = p.Blocks(bs)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return dedupBlocks(bs)
}

func dedupBlocks(bs []BlockID) []BlockID {
	if len(bs) < 2 {
		return bs
	}
	out := bs[:1]
	for _, b := range bs[1:] {
		if b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// Space is the full modelled address space: the set of ASes with Ukrainian
// delegations plus the index structures everything else queries. A Space is
// immutable after Build and safe for concurrent readers.
type Space struct {
	ases   []*AS
	byASN  map[ASN]*AS
	table  BlockTable // block → position in blocks and origin AS
	blocks []BlockID  // all blocks, sorted
}

// BuildSpace indexes the given ASes. Overlapping /24 ownership is an error:
// the model assigns each block to exactly one origin AS, as the paper does
// when grouping measurement data by AS.
func BuildSpace(ases []*AS) (*Space, error) {
	s := &Space{ases: ases, byASN: make(map[ASN]*AS, len(ases))}
	claims := 0
	for _, as := range ases {
		if as != nil {
			claims += as.NumBlocks()
		}
	}
	s.table = newBlockTable(claims)
	for _, as := range ases {
		if as == nil {
			return nil, fmt.Errorf("netmodel: nil AS")
		}
		if _, dup := s.byASN[as.ASN]; dup {
			return nil, fmt.Errorf("netmodel: duplicate %v", as.ASN)
		}
		s.byASN[as.ASN] = as
		for _, b := range as.Blocks() {
			sl := s.table.find(b)
			if sl.pos != 0 {
				return nil, fmt.Errorf("netmodel: block %v claimed by both %v and %v", b, sl.origin, as.ASN)
			}
			*sl = blockSlot{block: b, pos: 1, origin: as.ASN} // claimed; placed below
			s.blocks = append(s.blocks, b)
		}
	}
	sort.Slice(s.blocks, func(i, j int) bool { return s.blocks[i] < s.blocks[j] })
	for i, b := range s.blocks {
		s.table.find(b).pos = int32(i) + 1
	}
	return s, nil
}

// MustBuildSpace is BuildSpace that panics on error.
func MustBuildSpace(ases []*AS) *Space {
	s, err := BuildSpace(ases)
	if err != nil {
		panic(err)
	}
	return s
}

// ASes returns all ASes in input order. Callers must not mutate the slice.
func (s *Space) ASes() []*AS { return s.ases }

// NumASes returns the number of ASes in the space.
func (s *Space) NumASes() int { return len(s.ases) }

// Lookup returns the AS with the given number, or nil.
func (s *Space) Lookup(asn ASN) *AS { return s.byASN[asn] }

// OriginOf returns the AS originating the given /24 block, or 0 if the block
// is not part of the modelled space.
func (s *Space) OriginOf(b BlockID) ASN { return s.table.find(b).origin }

// Blocks returns all /24 blocks in the space, sorted. Callers must not
// mutate the slice.
func (s *Space) Blocks() []BlockID { return s.blocks }

// NumBlocks returns the total number of /24 blocks.
func (s *Space) NumBlocks() int { return len(s.blocks) }

// BlockIndex returns the position of b in Blocks(), or -1. Dense per-block
// arrays throughout the system are indexed this way.
func (s *Space) BlockIndex(b BlockID) int { return s.table.Index(b) }
