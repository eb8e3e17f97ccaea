package netmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"176.8.28.1", 0xb0081c01, true},
		{"10.0.0.1", 0x0a000001, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, uint32(got), uint32(c.want))
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrBytesRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		return AddrFromBytes(a.Bytes()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockOfAddr(t *testing.T) {
	a := MustParseAddr("176.8.28.77")
	b := a.Block()
	if got := b.String(); got != "176.8.28.0/24" {
		t.Errorf("block = %s, want 176.8.28.0/24", got)
	}
	if MustParseAddr("176.8.29.1").Block() == b {
		t.Error("block contains foreign address")
	}
	if b.Addr(77) != a {
		t.Errorf("Addr(77) = %v, want %v", b.Addr(77), a)
	}
	if a.HostByte() != 77 {
		t.Errorf("HostByte = %d, want 77", a.HostByte())
	}
	if b.First() != MustParseAddr("176.8.28.0") {
		t.Errorf("First = %v", b.First())
	}
}

func TestParseBlock(t *testing.T) {
	b, err := ParseBlock("91.198.4.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if b != MustParseAddr("91.198.4.0").Block() {
		t.Errorf("unexpected block %v", b)
	}
	if _, err := ParseBlock("91.198.4.0/23"); err == nil {
		t.Error("ParseBlock accepted a /23")
	}
	if _, err := ParseBlock("91.198.4.0"); err == nil {
		t.Error("ParseBlock accepted a bare address")
	}
}

func TestPrefixBasics(t *testing.T) {
	p := MustParsePrefix("91.198.4.0/22")
	if p.NumAddrs() != 1024 {
		t.Errorf("NumAddrs = %d, want 1024", p.NumAddrs())
	}
	if p.NumBlocks() != 4 {
		t.Errorf("NumBlocks = %d, want 4", p.NumBlocks())
	}
	blocks := p.Blocks(nil)
	if len(blocks) != 4 {
		t.Fatalf("Blocks len = %d", len(blocks))
	}
	for i, want := range []string{"91.198.4.0/24", "91.198.5.0/24", "91.198.6.0/24", "91.198.7.0/24"} {
		if blocks[i].String() != want {
			t.Errorf("block[%d] = %s, want %s", i, blocks[i], want)
		}
	}
	if !p.Contains(MustParseAddr("91.198.7.255")) {
		t.Error("prefix should contain 91.198.7.255")
	}
	if p.Contains(MustParseAddr("91.198.8.0")) {
		t.Error("prefix should not contain 91.198.8.0")
	}
}

func TestPrefixHostBitsCleared(t *testing.T) {
	p, err := NewPrefix(MustParseAddr("10.1.2.3"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != MustParseAddr("10.1.0.0") {
		t.Errorf("Base = %v, want 10.1.0.0", p.Base)
	}
	if p.String() != "10.1.0.0/16" {
		t.Errorf("String = %s", p)
	}
}

func TestPrefixZeroAndFull(t *testing.T) {
	p := MustNewPrefix(0, 0)
	if !p.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("/0 must contain everything")
	}
	if p.NumAddrs() != 1<<32 {
		t.Errorf("/0 NumAddrs = %d", p.NumAddrs())
	}
	host := MustParsePrefix("10.0.0.1/32")
	if host.NumAddrs() != 1 || host.NumBlocks() != 1 {
		t.Errorf("/32 sizes wrong: %d addrs %d blocks", host.NumAddrs(), host.NumBlocks())
	}
	if _, err := NewPrefix(0, 33); err == nil {
		t.Error("NewPrefix accepted /33")
	}
}

func TestPrefixLongerThan24CountsOneBlock(t *testing.T) {
	p := MustParsePrefix("10.0.0.128/25")
	if got := p.NumBlocks(); got != 1 {
		t.Errorf("/25 NumBlocks = %d, want 1", got)
	}
	bs := p.Blocks(nil)
	if len(bs) != 1 || bs[0] != MustParseBlock("10.0.0.0/24") {
		t.Errorf("/25 Blocks = %v", bs)
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/16")
	b := MustParsePrefix("10.0.4.0/24")
	c := MustParsePrefix("10.1.0.0/16")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes must overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes must not overlap")
	}
}

func TestPrefixContainsConsistentWithBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		bits := uint8(rng.Intn(9) + 16) // /16../24
		base := Addr(rng.Uint32())
		p := MustNewPrefix(base, bits)
		for _, blk := range p.Blocks(nil) {
			if !p.Contains(blk.First()) {
				t.Fatalf("prefix %v does not contain its block %v", p, blk)
			}
		}
	}
}
