package netmodel

import (
	"sort"
	"testing"
)

func twoASSpace(t *testing.T) *Space {
	t.Helper()
	s, err := BuildSpace([]*AS{
		{ASN: 25482, Name: "Status", HQ: Kherson, Prefixes: []Prefix{
			MustParsePrefix("193.151.240.0/23"),
			MustParsePrefix("193.151.242.0/24"),
			MustParsePrefix("193.151.243.0/24"),
		}},
		{ASN: 15895, Name: "Kyivstar", HQ: Kyiv, Prefixes: []Prefix{
			MustParsePrefix("176.8.0.0/19"),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpaceBasics(t *testing.T) {
	s := twoASSpace(t)
	if s.NumASes() != 2 {
		t.Fatalf("NumASes = %d", s.NumASes())
	}
	if got := s.NumBlocks(); got != 4+32 {
		t.Fatalf("NumBlocks = %d, want 36", got)
	}
	if got := len(s.blocks) * BlockSize; got != 36*256 {
		t.Fatalf("addresses = %d", got)
	}
	status := s.Lookup(25482)
	if status == nil || status.Name != "Status" {
		t.Fatalf("Lookup(25482) = %+v", status)
	}
	if s.Lookup(64512) != nil {
		t.Error("Lookup of unknown ASN should be nil")
	}
	if status.NumBlocks() != 4 {
		t.Errorf("Status NumBlocks = %d, want 4", status.NumBlocks())
	}
}

func TestSpaceOrigin(t *testing.T) {
	s := twoASSpace(t)
	if asn := s.OriginOf(MustParseBlock("193.151.241.0/24")); asn != 25482 {
		t.Errorf("OriginOf = %v, want AS25482", asn)
	}
	if asn := s.OriginOf(MustParseBlock("176.8.28.0/24")); asn != 15895 {
		t.Errorf("OriginOf = %v, want AS15895", asn)
	}
	if asn := s.OriginOf(MustParseBlock("8.8.8.0/24")); asn != 0 {
		t.Errorf("OriginOf foreign block = %v, want 0", asn)
	}
	if s.BlockIndex(MustParseAddr("176.8.0.1").Block()) < 0 {
		t.Error("modelled address not found")
	}
	if s.BlockIndex(MustParseAddr("8.8.8.8").Block()) >= 0 {
		t.Error("foreign address found")
	}
}

func TestSpaceBlockIndex(t *testing.T) {
	// The second space lists its ASes out of address order with prefixes
	// that interleave, so input order and Blocks() order differ.
	interleaved, err := BuildSpace([]*AS{
		{ASN: 3, Prefixes: []Prefix{MustParsePrefix("10.0.4.0/23"), MustParsePrefix("10.0.0.0/24")}},
		{ASN: 1, Prefixes: []Prefix{MustParsePrefix("10.0.2.0/23"), MustParsePrefix("10.0.7.0/24")}},
		{ASN: 2, Prefixes: []Prefix{MustParsePrefix("9.255.255.0/24"), MustParsePrefix("10.0.9.0/24")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Space{"two ASes": twoASSpace(t), "interleaved": interleaved} {
		blocks := s.Blocks()
		for i := 1; i < len(blocks); i++ {
			if blocks[i-1] >= blocks[i] {
				t.Fatalf("%s: Blocks not strictly sorted at %d", name, i)
			}
		}
		// The index is the block's position in Blocks(): what a binary
		// search of the sorted list finds, and -1 for every block it does
		// not — the gaps between prefixes, both neighbours of the space and
		// the ends of the address range.
		probes := []BlockID{0, 1<<24 - 1, MustParseBlock("8.8.8.0/24")}
		for _, b := range blocks {
			probes = append(probes, b-1, b, b+1)
		}
		for _, b := range probes {
			want := -1
			if i := sort.Search(len(blocks), func(i int) bool { return blocks[i] >= b }); i < len(blocks) && blocks[i] == b {
				want = i
			}
			if got := s.BlockIndex(b); got != want {
				t.Errorf("%s: BlockIndex(%v) = %d, want %d", name, b, got, want)
			}
		}
		if got := s.BlockIndex(MustParseBlock("8.8.8.0/24")); got != -1 {
			t.Errorf("%s: BlockIndex(foreign) = %d, want -1", name, got)
		}
	}
}

func TestBuildSpaceRejectsOverlap(t *testing.T) {
	_, err := BuildSpace([]*AS{
		{ASN: 1, Prefixes: []Prefix{MustParsePrefix("10.0.0.0/23")}},
		{ASN: 2, Prefixes: []Prefix{MustParsePrefix("10.0.1.0/24")}},
	})
	if err == nil {
		t.Fatal("BuildSpace accepted overlapping block ownership")
	}
}

func TestBuildSpaceRejectsDuplicateASN(t *testing.T) {
	_, err := BuildSpace([]*AS{
		{ASN: 1, Prefixes: []Prefix{MustParsePrefix("10.0.0.0/24")}},
		{ASN: 1, Prefixes: []Prefix{MustParsePrefix("10.0.1.0/24")}},
	})
	if err == nil {
		t.Fatal("BuildSpace accepted duplicate ASN")
	}
}

func TestASBlocksDedup(t *testing.T) {
	as := &AS{ASN: 9, Prefixes: []Prefix{
		MustParsePrefix("10.0.0.0/25"),
		MustParsePrefix("10.0.0.128/25"),
	}}
	if got := len(as.Blocks()); got != 1 {
		t.Fatalf("two /25s in one /24 should dedup to 1 block, got %d", got)
	}
}

func TestASNString(t *testing.T) {
	if ASN(25482).String() != "AS25482" {
		t.Errorf("ASN.String = %q", ASN(25482).String())
	}
}
