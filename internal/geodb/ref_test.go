package geodb

import (
	"math/rand/v2"
	"sort"
	"testing"

	"countrymon/internal/netmodel"
)

// refBlockShares is BlockShares as it was when it counted the addresses
// located outside the home regions per country.
type refBlockShares struct {
	PerRegion [netmodel.NumRegions + 1]uint16 // indexed by Region
	Abroad    map[string]uint16               // country -> count (excl. home)
	Located   uint16                          // total addresses covered
}

// refBlockSharesFor is BlockSharesFor as it was when it copied its candidate
// entries into a slice and tallied abroad addresses in a map, kept verbatim
// as the oracle of BlockSharesFor and DominantAbroad.
func (s *Snapshot) refBlockSharesFor(block netmodel.BlockID, country string) refBlockShares {
	var out refBlockShares
	// Walk the 256 addresses via entry ranges rather than per-IP lookups:
	// find all entries overlapping the block.
	bp := netmodel.Prefix{Base: block.First(), Bits: 24}
	i := sort.Search(len(s.entries), func(i int) bool {
		return s.entries[i].Prefix.Base >= bp.Base
	})
	// Include one covering entry that starts before the block, plus nested
	// wider entries; collect candidates then resolve per address.
	var cands []Entry
	for j := i - 1; j >= 0 && len(cands) < 8; j-- {
		if s.entries[j].Prefix.Overlaps(bp) {
			cands = append(cands, s.entries[j])
		}
		if bp.Base-s.entries[j].Prefix.Base > 1<<24 {
			break
		}
	}
	for j := i; j < len(s.entries) && s.entries[j].Prefix.Base <= bp.Base+255; j++ {
		if s.entries[j].Prefix.Overlaps(bp) {
			cands = append(cands, s.entries[j])
		}
	}
	if len(cands) == 0 {
		return out
	}
	// Resolve each address against the most specific candidate.
	for h := 0; h < netmodel.BlockSize; h++ {
		a := block.Addr(uint8(h))
		var best *Entry
		for k := range cands {
			e := &cands[k]
			if e.Prefix.Contains(a) && (best == nil || e.Prefix.Bits > best.Prefix.Bits) {
				best = e
			}
		}
		if best == nil {
			continue
		}
		out.Located++
		if best.Country == country && best.Region.Valid() {
			out.PerRegion[best.Region]++
		} else {
			if out.Abroad == nil {
				out.Abroad = make(map[string]uint16, 2)
			}
			out.Abroad[best.Country]++
		}
	}
	return out
}

// refLookup is Lookup as it was when it stepped back through every entry
// until one started more than 2²⁴ addresses below addr, kept verbatim as
// Lookup's oracle. The cutoff is exact for entries no wider than /8.
func (s *Snapshot) refLookup(addr netmodel.Addr) (Entry, bool) {
	// Entries are sorted by base; candidates are those with Base <= addr.
	// Scan backwards from the insertion point for the longest match; tiling
	// means the first containing entry is the answer, but nested entries
	// (sub-/24 drift carved out of a larger range) make a short backward
	// scan necessary.
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Prefix.Base > addr })
	best := Entry{}
	found := false
	for j := i - 1; j >= 0; j-- {
		e := s.entries[j]
		if e.Prefix.Contains(addr) {
			if !found || e.Prefix.Bits > best.Prefix.Bits {
				best, found = e, true
			}
		}
		// Stop once entries can no longer contain addr: when the gap
		// exceeds the widest possible prefix (a /0 would always contain,
		// but our databases never go wider than /8).
		if addr-e.Prefix.Base > 1<<24 {
			break
		}
	}
	return best, found
}

// testArea is the first of the 32 blocks randomSnapshot draws entries over,
// eight million addresses into 10.0.0.0/8.
var testArea = netmodel.MustParseBlock("10.129.0.0/24")

// prefixAt is the prefix of the given length containing a.
func prefixAt(a netmodel.Addr, bits uint8) netmodel.Prefix {
	return netmodel.Prefix{Base: a & netmodel.Prefix{Bits: bits}.Mask(), Bits: bits}
}

// randomSnapshot draws a snapshot over the 32 blocks from testArea: nested
// ranges from /8 to /23 around them (often more than eight deep, sometimes
// only the /8, millions of addresses back past an unrelated range), /24s,
// sub-/24 drift down to single addresses (sometimes a dozen or more in one
// block), duplicates, region-less entries at home and abroad, and gaps. Half
// the time hundreds of unrelated /24s lie just below the area, between it
// and the ranges that enclose it, as sim.GeoSnapshot lays a country out. No
// entry is wider than /8, where refLookup's cutoff is exact.
func randomSnapshot(rng *rand.Rand) *Snapshot {
	ccs := []string{"UA", "UA", "UA", "US", "DE", "RU", ""}
	entry := func(p netmodel.Prefix) Entry {
		e := Entry{Prefix: p, Country: ccs[rng.IntN(len(ccs))], RadiusKM: uint32(5 + rng.IntN(4996))}
		if rng.IntN(4) != 0 {
			e.Region = netmodel.Region(1 + rng.IntN(netmodel.NumRegions))
		}
		return e
	}
	addr := func() netmodel.Addr { return testArea.First() + netmodel.Addr(rng.IntN(32*256)) }
	var es []Entry
	wide := []float64{0, 0.3, 0.9}[rng.IntN(3)]
	if rng.IntN(2) == 0 {
		es = append(es, entry(netmodel.MustParsePrefix("10.0.0.0/8")))
	}
	if rng.IntN(2) == 0 {
		es = append(es, entry(netmodel.MustParsePrefix("10.64.0.0/16")))
	}
	for bits := uint8(9); bits < 24; bits++ {
		if rng.Float64() < wide {
			es = append(es, entry(prefixAt(addr(), bits)))
		}
	}
	for b := 0; b < 32; b++ {
		if rng.IntN(2) == 0 {
			es = append(es, entry(prefixAt(testArea.First()+netmodel.Addr(b*256), 24)))
		}
	}
	if rng.IntN(2) == 0 {
		for n := 100 + rng.IntN(400); n > 0; n-- {
			es = append(es, entry(prefixAt(testArea.First()-netmodel.Addr(n*256), 24)))
		}
	}
	for n := rng.IntN(24); n > 0; n-- {
		es = append(es, entry(prefixAt(addr(), uint8(25+rng.IntN(8)))))
	}
	if rng.IntN(3) == 0 {
		dense := testArea.First() + netmodel.Addr(rng.IntN(32)*256)
		for n := 9 + rng.IntN(16); n > 0; n-- {
			es = append(es, entry(prefixAt(dense+netmodel.Addr(rng.IntN(256)), uint8(28+rng.IntN(5)))))
		}
	}
	// Duplicated prefixes that say something else: which of two equally
	// specific entries wins is decided by their order.
	for n := rng.IntN(3); n > 0 && len(es) > 0; n-- {
		dup := entry(es[rng.IntN(len(es))].Prefix)
		es = append(es, dup)
	}
	// Neighbours on either side that overlap nothing in the area.
	es = append(es, entry(netmodel.MustParsePrefix("9.0.0.0/16")), entry(netmodel.MustParsePrefix("12.0.0.0/8")))
	return NewSnapshot(es)
}

// checkSharesMatchRef compares BlockSharesFor and DominantAbroad with the
// oracle on one block: the per-region counts, the located total, the
// abroad total, and the dominant destination (the lowest code among ties).
func checkSharesMatchRef(t *testing.T, s *Snapshot, blk netmodel.BlockID, country string) {
	t.Helper()
	want := s.refBlockSharesFor(blk, country)
	got := s.BlockSharesFor(blk, country)
	if got.PerRegion != want.PerRegion || got.Located != want.Located {
		t.Fatalf("%v home %q: BlockSharesFor = %+v, oracle %+v", blk, country, got, want)
	}
	home, abroad := 0, 0
	for _, n := range got.PerRegion {
		home += int(n)
	}
	wantCC, wantN := "", uint16(0)
	for cc, n := range want.Abroad {
		abroad += int(n)
		if n > wantN || n == wantN && cc < wantCC {
			wantCC, wantN = cc, n
		}
	}
	if int(got.Located)-home != abroad {
		t.Fatalf("%v home %q: Located − ΣPerRegion = %d, oracle abroad %d (%v)", blk, country, int(got.Located)-home, abroad, want.Abroad)
	}
	if cc, n := s.DominantAbroad(blk, country); cc != wantCC || n != wantN {
		t.Fatalf("%v home %q: DominantAbroad = %q/%d, oracle %q/%d (%v)", blk, country, cc, n, wantCC, wantN, want.Abroad)
	}
}

// checkSnapshotMatchesRef runs checkSharesMatchRef over every block of the
// test area, a block either side of it and two far outside, for two home
// countries.
func checkSnapshotMatchesRef(t *testing.T, s *Snapshot) {
	t.Helper()
	blocks := []netmodel.BlockID{testArea - 1, netmodel.MustParseBlock("11.0.0.0/24"), netmodel.MustParseBlock("200.0.0.0/24")}
	for b := 0; b <= 32; b++ {
		blocks = append(blocks, testArea+netmodel.BlockID(b))
	}
	for _, blk := range blocks {
		for _, cc := range []string{CountryUA, "US"} {
			checkSharesMatchRef(t, s, blk, cc)
		}
	}
}

// TestBlockSharesMatchesRef: on the sample snapshot and 400 random ones,
// resolving candidate indices run by run gives the oracle's counts.
func TestBlockSharesMatchesRef(t *testing.T) {
	checkSnapshotMatchesRef(t, sampleSnapshot())
	for _, blk := range []string{"91.198.4.0/24", "91.198.5.0/24", "176.8.17.0/24", "52.0.0.0/24"} {
		checkSharesMatchRef(t, sampleSnapshot(), netmodel.MustParseBlock(blk), CountryUA)
	}
	deep, dense := 0, 0
	for seed := uint64(0); seed < 400; seed++ {
		s := randomSnapshot(rand.New(rand.NewPCG(seed, 0x9e0db)))
		checkSnapshotMatchesRef(t, s)
		wide, sub := map[netmodel.BlockID]int{}, map[netmodel.BlockID]int{}
		for _, e := range s.Entries() {
			for b := 0; b < 32; b++ {
				blk := testArea + netmodel.BlockID(b)
				if e.Prefix.Bits < 24 && e.Prefix.Contains(blk.First()) {
					wide[blk]++
				} else if e.Prefix.Bits > 24 && e.Prefix.Base.Block() == blk {
					sub[blk]++
				}
			}
		}
		for _, n := range wide {
			if n > 8 {
				deep++
				break
			}
		}
		for _, n := range sub {
			if n > 8 {
				dense++
				break
			}
		}
	}
	if deep == 0 || dense == 0 {
		t.Fatalf("%d snapshots nest more than 8 ranges over a block, %d carve one into more than 8: the generator misses a case", deep, dense)
	}
}

// FuzzBlockSharesMatchesRef is TestBlockSharesMatchesRef on snapshots drawn
// from fuzzed seeds.
func FuzzBlockSharesMatchesRef(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkSnapshotMatchesRef(t, randomSnapshot(rand.New(rand.NewPCG(seed, 0x9e0db))))
	})
}

// checkLookupMatchesRef compares Lookup with the oracle at every address of
// the test area and the block either side of it, and at a few far outside.
func checkLookupMatchesRef(t *testing.T, s *Snapshot) {
	t.Helper()
	addrs := []netmodel.Addr{0, netmodel.MustParseAddr("9.0.0.1"), netmodel.MustParseAddr("11.0.0.1"),
		netmodel.MustParseAddr("12.3.4.5"), netmodel.MustParseAddr("200.0.0.1"), ^netmodel.Addr(0)}
	for a := (testArea - 1).First(); a < (testArea + 33).First(); a++ {
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		got, gotOK := s.Lookup(a)
		want, wantOK := s.refLookup(a)
		if got != want || gotOK != wantOK {
			t.Fatalf("Lookup(%v) = %+v/%v, oracle %+v/%v", a, got, gotOK, want, wantOK)
		}
	}
}

// TestLookupMatchesRef: on the sample snapshot and 200 random ones, walking
// the containment chain gives the oracle's entry at every address.
func TestLookupMatchesRef(t *testing.T) {
	checkLookupMatchesRef(t, sampleSnapshot())
	sparse := 0
	for seed := uint64(0); seed < 200; seed++ {
		s := randomSnapshot(rand.New(rand.NewPCG(seed, 0x9e0db)))
		checkLookupMatchesRef(t, s)
		// Count the snapshots where a block's most specific entry is a
		// range starting more than 100 entries below the block.
		for b := 0; b < 32; b++ {
			a := (testArea + netmodel.BlockID(b)).First()
			if e, ok := s.refLookup(a); ok && e.Prefix.Bits < 24 && s.upTo(a-1)-s.upTo(e.Prefix.Base-1) > 100 {
				sparse++
				break
			}
		}
	}
	if sparse == 0 {
		t.Fatal("no snapshot puts 100 entries between a block and the range locating it: the generator misses a case")
	}
}

// FuzzLookupMatchesRef is TestLookupMatchesRef on snapshots drawn from
// fuzzed seeds.
func FuzzLookupMatchesRef(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkLookupMatchesRef(t, randomSnapshot(rand.New(rand.NewPCG(seed, 0x9e0db))))
	})
}

// TestNewSnapshotAllocs: building a snapshot allocates the snapshot, its
// sorted copy and its containment index, and nothing per entry.
func TestNewSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	es := randomSnapshot(rand.New(rand.NewPCG(1, 0x9e0db))).Entries()
	var sink *Snapshot
	if allocs := testing.AllocsPerRun(50, func() { sink = NewSnapshot(es) }); allocs != 3 {
		t.Errorf("NewSnapshot of %d entries allocates %.1f objects, want 3", len(es), allocs)
	}
	_ = sink
}

// TestBlockSharesZeroAlloc: counting a drifted block with addresses abroad,
// naming where they went and looking up its radius cost no heap (a
// candidate slice and a per-country map per call before).
func TestBlockSharesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewSnapshot(append(sampleSnapshot().Entries(),
		Entry{Prefix: netmodel.MustParsePrefix("91.198.4.0/27"), Country: "US", RadiusKM: 1000},
		Entry{Prefix: netmodel.MustParsePrefix("91.198.4.32/28"), Country: "DE", RadiusKM: 1000}))
	blk := netmodel.MustParseBlock("91.198.4.0/24")
	bs := s.BlockShares(blk)
	if cc, n := s.DominantAbroad(blk, CountryUA); bs.Located != 256 || bs.PerRegion[netmodel.Kherson] != 144 || bs.PerRegion[netmodel.Kyiv] != 64 || cc != "US" || n != 32 {
		t.Fatalf("shares %+v, abroad %s/%d: want 144 Kherson, 64 Kyiv, 32 US, 16 DE", bs, cc, n)
	}
	addr := blk.Addr(200)
	if e, ok := s.Lookup(addr); !ok || e.Region != netmodel.Kyiv || e.Prefix.Bits != 26 {
		t.Fatalf("Lookup(%v) = %+v/%v, want the Kyiv /26", addr, e, ok)
	}
	var sink BlockShares
	var entry Entry
	allocs := testing.AllocsPerRun(200, func() {
		sink = s.BlockSharesFor(blk, CountryUA)
		s.DominantAbroad(blk, CountryUA)
		entry, _ = s.Lookup(addr)
	})
	if allocs != 0 {
		t.Errorf("BlockSharesFor + DominantAbroad + Lookup allocate %.1f objects per block, want 0", allocs)
	}
	_, _ = sink, entry
}
