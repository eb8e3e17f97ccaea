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
	"cmp"
	"fmt"
	"io"
	"slices"
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

// Snapshot is one month's database. Entries may nest: a sub-/24 drift
// carve-out inside its block's /24, or a block inside a wider range. The most
// specific entry containing an address locates it.
//
// Two prefixes either nest or are disjoint, and the entries are sorted by
// (Base, Bits), so the entries containing any one address form a chain, from
// the most specific (the latest in sort order) to the widest. up links each
// entry to the next one along its base's chain, so a query walks only the
// entries that contain it, never the unrelated ones between.
type Snapshot struct {
	entries []Entry // sorted by (Base, Bits)
	up      []int32 // up[j]: the latest entry before j containing j's base, or −1
}

// NewSnapshot builds a snapshot from entries (copied and sorted).
func NewSnapshot(entries []Entry) *Snapshot {
	es := append([]Entry(nil), entries...)
	slices.SortFunc(es, func(a, b Entry) int {
		if c := cmp.Compare(a.Prefix.Base, b.Prefix.Base); c != 0 {
			return c
		}
		return cmp.Compare(a.Prefix.Bits, b.Prefix.Bits)
	})
	// The entries before j that contain j's base are a chain ending at the
	// latest of them. Every entry between it and j starts inside it, so the
	// walk from j−1 along up reaches it without passing it.
	up := make([]int32, len(es))
	for j := range es {
		k := j - 1
		for k >= 0 && !es[k].Prefix.Contains(es[j].Prefix.Base) {
			k = int(up[k])
		}
		up[j] = int32(k)
	}
	return &Snapshot{entries: es, up: up}
}

// Len returns the number of entries.
func (s *Snapshot) Len() int { return len(s.entries) }

// Entries returns the sorted entries (do not mutate).
func (s *Snapshot) Entries() []Entry { return s.entries }

// upTo returns the number of entries starting at or below a.
func (s *Snapshot) upTo(a netmodel.Addr) int {
	return sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Prefix.Base > a })
}

// Lookup returns the most specific entry containing addr: the first on the
// chain of the last entry starting at or below addr that contains it.
func (s *Snapshot) Lookup(addr netmodel.Addr) (Entry, bool) {
	for j := s.upTo(addr) - 1; j >= 0; j = int(s.up[j]) {
		if e := s.entries[j]; e.Prefix.Contains(addr) {
			return e, true
		}
	}
	return Entry{}, false
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
	// the latest entry before them that contains the block's first address.
	// An entry starting before a block overlaps it only by containing all of
	// it, so that entry is the most specific of those.
	first := block.First()
	hi := s.upTo(first + netmodel.BlockSize - 1)
	lo := hi
	for lo > 0 && s.entries[lo-1].Prefix.Base >= first {
		lo--
	}
	o := lo - 1
	for o >= 0 && !s.entries[o].Prefix.Contains(first) {
		o = int(s.up[o])
	}
	var w sweep
	if o >= 0 {
		w.push(&s.entries[o], netmodel.BlockSize)
	}
	for j := lo; j < hi; j++ {
		e := &s.entries[j]
		start := int(e.Prefix.Base - first)
		w.advance(start, f)
		if w.depth > 0 && w.open[w.depth-1].e.Prefix == e.Prefix {
			continue // of two equal prefixes, the first answers
		}
		end := netmodel.BlockSize
		if e.Prefix.Bits > 24 {
			end = start + 1<<(32-e.Prefix.Bits)
		}
		w.push(e, end)
	}
	w.advance(netmodel.BlockSize, f)
	if w.run != nil {
		f(w.run, w.n)
	}
}

// sweep walks a block's addresses in order, over candidates taken in sort
// order: each starts inside the open range below it or after it ends, so the
// open ranges nest, at most one per prefix length, and the innermost locates
// the addresses the sweep passes.
type sweep struct {
	open [33]struct {
		e   *Entry
		end int // the block offset the range ends before
	}
	depth int
	pos   int    // the block offset of the next address to hand on
	run   *Entry // the run being gathered: n addresses before pos
	n     uint16
}

// push opens e's range, up to end, above the others.
func (w *sweep) push(e *Entry, end int) {
	w.open[w.depth].e, w.open[w.depth].end = e, end
	w.depth++
}

// advance hands the addresses from pos up to end to the ranges that locate
// them, closing each range the sweep passes the end of.
func (w *sweep) advance(end int, f func(e *Entry, n uint16)) {
	for w.depth > 0 && w.open[w.depth-1].end <= end {
		w.depth--
		w.emit(w.open[w.depth].e, w.open[w.depth].end, f)
	}
	var e *Entry
	if w.depth > 0 {
		e = w.open[w.depth-1].e
	}
	w.emit(e, end, f)
}

// emit adds the addresses from pos up to end to e's run, handing the run
// before it to f when that run is another entry's; a nil e locates nothing.
func (w *sweep) emit(e *Entry, end int, f func(e *Entry, n uint16)) {
	if end == w.pos {
		return
	}
	if e != w.run {
		if w.run != nil {
			f(w.run, w.n)
		}
		w.run, w.n = e, 0
	}
	w.n += uint16(end - w.pos)
	w.pos = end
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
