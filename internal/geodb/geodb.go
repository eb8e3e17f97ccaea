// Package geodb is the IPInfo-like geolocation substrate: monthly database
// snapshots mapping IPv4 prefixes to a country, a Ukrainian region (oblast)
// and a radius-of-confidence in kilometres (the IPInfo "radius" metric the
// paper uses to validate regional classification, §4.3).
//
// Snapshots are obtained "on the first day of each month" (§3.2); the
// simulation generates them from ground truth plus calibrated noise, and the
// classification pipeline consumes them exactly as it would consume the
// commercial database.
package geodb

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"countrymon/internal/netmodel"
)

// CountryUA is Ukraine's ISO code as used in the database.
const CountryUA = "UA"

// Entry locates one prefix. Prefixes may be more specific than /24 (IP
// drift inside a block shows up as sub-/24 entries pointing elsewhere).
type Entry struct {
	Prefix   netmodel.Prefix
	Country  string          // ISO 3166-1 alpha-2
	Region   netmodel.Region // RegionNone when outside Ukraine
	RadiusKM uint32          // confidence radius, 5..5000 km
}

// Snapshot is one month's database. Entries must tile the covered space
// without overlaps (the builder enforces longest-prefix semantics by
// sorting; Lookup uses most-specific match).
type Snapshot struct {
	entries []Entry // sorted by (Base, Bits)
}

// NewSnapshot builds a snapshot from entries (copied and sorted).
func NewSnapshot(entries []Entry) *Snapshot {
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Prefix.Base != es[j].Prefix.Base {
			return es[i].Prefix.Base < es[j].Prefix.Base
		}
		return es[i].Prefix.Bits < es[j].Prefix.Bits
	})
	return &Snapshot{entries: es}
}

// Len returns the number of entries.
func (s *Snapshot) Len() int { return len(s.entries) }

// Entries returns the sorted entries (do not mutate).
func (s *Snapshot) Entries() []Entry { return s.entries }

// Lookup returns the most specific entry containing addr.
func (s *Snapshot) Lookup(addr netmodel.Addr) (Entry, bool) {
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

// BlockShares returns, for one /24 block, how many of its 256 addresses the
// snapshot locates in each region of the home country. The rest of Located
// lies abroad (or at home with no region); DominantAbroad says where.
type BlockShares struct {
	PerRegion [netmodel.NumRegions + 1]uint16 // indexed by Region
	Located   uint16                          // total addresses covered
}

// Share returns the fraction of the block's 256 addresses in region r.
func (b *BlockShares) Share(r netmodel.Region) float64 {
	return float64(b.PerRegion[r]) / netmodel.BlockSize
}

// DominantRegion returns the region holding the most addresses (and that
// count); RegionNone if nothing is located in Ukraine.
func (b *BlockShares) DominantRegion() (netmodel.Region, uint16) {
	var best netmodel.Region
	var n uint16
	for r := netmodel.Region(1); int(r) <= netmodel.NumRegions; r++ {
		if b.PerRegion[r] > n {
			best, n = r, b.PerRegion[r]
		}
	}
	return best, n
}

// BlockShares computes the per-region address counts of a block with Ukraine
// as the home country (the original single-country pipeline).
func (s *Snapshot) BlockShares(block netmodel.BlockID) BlockShares {
	return s.BlockSharesFor(block, CountryUA)
}

// BlockSharesFor computes the per-region address counts of a block, counting
// regions only for entries located in the given home country.
func (s *Snapshot) BlockSharesFor(block netmodel.BlockID, country string) BlockShares {
	var out BlockShares
	s.locate(block, func(e *Entry, n uint16) {
		out.Located += n
		if e.Country == country && e.Region.Valid() {
			out.PerRegion[e.Region] += n
		}
	})
	return out
}

// DominantAbroad returns the country holding the most of the block's located
// addresses that BlockSharesFor counts in no home region, and that count.
// Ties go to the lowest country code; ("", 0) when there are none.
func (s *Snapshot) DominantAbroad(block netmodel.BlockID, country string) (string, uint16) {
	type tally struct {
		cc string
		n  uint16
	}
	var buf [8]tally
	ts := buf[:0]
	s.locate(block, func(e *Entry, n uint16) {
		if e.Country == country && e.Region.Valid() {
			return
		}
		for i := range ts {
			if ts[i].cc == e.Country {
				ts[i].n += n
				return
			}
		}
		ts = append(ts, tally{e.Country, n})
	})
	var cc string
	var most uint16
	for _, t := range ts {
		if t.n > most || t.n == most && t.cc < cc {
			cc, most = t.cc, t.n
		}
	}
	return cc, most
}

// locate resolves each address of the block to its most specific entry and
// calls f once per run of consecutive addresses resolved to the same entry,
// with the run's length. Unlocated addresses are skipped.
func (s *Snapshot) locate(block netmodel.BlockID, f func(e *Entry, n uint16)) {
	// The candidates are the entries[lo:hi] that start inside the block and
	// the nearest entry before it that overlaps it. An entry starting before
	// a block overlaps it only by containing all of it, so those entries nest
	// and the nearest is the most specific of them.
	bp := netmodel.Prefix{Base: block.First(), Bits: 24}
	lo := sort.Search(len(s.entries), func(i int) bool {
		return s.entries[i].Prefix.Base >= bp.Base
	})
	var outer *Entry
	for j := lo - 1; j >= 0; j-- {
		if s.entries[j].Prefix.Overlaps(bp) {
			outer = &s.entries[j]
			break
		}
		if bp.Base-s.entries[j].Prefix.Base > 1<<24 {
			break
		}
	}
	hi := lo
	for hi < len(s.entries) && s.entries[hi].Prefix.Base <= bp.Base+255 {
		hi++
	}
	if outer == nil && hi == lo {
		return
	}
	var run *Entry
	var n uint16
	for h := 0; h < netmodel.BlockSize; h++ {
		a := block.Addr(uint8(h))
		best := outer
		for j := lo; j < hi; j++ {
			if e := &s.entries[j]; e.Prefix.Contains(a) && (best == nil || e.Prefix.Bits > best.Prefix.Bits) {
				best = e
			}
		}
		if best == run {
			n++
			continue
		}
		if run != nil {
			f(run, n)
		}
		run, n = best, 1
	}
	if run != nil {
		f(run, n)
	}
}

// RegionIPCounts sums located addresses per region across the snapshot with
// Ukraine as the home country (Figs 1/19: "IPv4 address counts per oblast").
func (s *Snapshot) RegionIPCounts() map[netmodel.Region]int64 {
	return s.RegionIPCountsFor(CountryUA)
}

// RegionIPCountsFor sums located addresses per region across the snapshot
// for entries in the given home country.
func (s *Snapshot) RegionIPCountsFor(country string) map[netmodel.Region]int64 {
	out := make(map[netmodel.Region]int64, netmodel.NumRegions)
	for _, e := range s.entries {
		if e.Country == country && e.Region.Valid() {
			out[e.Region] += int64(e.Prefix.NumAddrs())
		}
	}
	return out
}

// CountryIPCounts sums located addresses per country.
func (s *Snapshot) CountryIPCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, e := range s.entries {
		out[e.Country] += int64(e.Prefix.NumAddrs())
	}
	return out
}

// RadiusValues returns all radius values for entries matching the filter
// (nil filter = all), weighted per entry (not per IP), for median analysis.
func (s *Snapshot) RadiusValues(filter func(Entry) bool) []uint32 {
	var out []uint32
	for _, e := range s.entries {
		if filter == nil || filter(e) {
			out = append(out, e.RadiusKM)
		}
	}
	return out
}

// DB is a sequence of monthly snapshots aligned with the campaign's dense
// month indices.
type DB struct {
	snaps []*Snapshot
}

// NewDB wraps monthly snapshots (index = dense campaign month).
func NewDB(snaps []*Snapshot) *DB { return &DB{snaps: snaps} }

// Months returns the number of snapshots.
func (db *DB) Months() int { return len(db.snaps) }

// Month returns the snapshot for dense month m (nil if out of range).
func (db *DB) Month(m int) *Snapshot {
	if m < 0 || m >= len(db.snaps) {
		return nil
	}
	return db.snaps[m]
}

// --- Serialization (IPInfo-like CSV) ---

// WriteTo writes the snapshot as "prefix,country,region,radius_km" lines.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	k, err := fmt.Fprintln(bw, "prefix,country,region,radius_km")
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, e := range s.entries {
		region := ""
		if e.Region.Valid() {
			region = e.Region.String()
		}
		k, err := fmt.Fprintf(bw, "%s,%s,%s,%d\n", e.Prefix, e.Country, region, e.RadiusKM)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}
