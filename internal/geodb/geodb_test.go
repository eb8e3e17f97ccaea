package geodb

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"countrymon/internal/netmodel"
)

func sampleSnapshot() *Snapshot {
	return NewSnapshot([]Entry{
		{Prefix: netmodel.MustParsePrefix("91.198.4.0/24"), Country: "UA", Region: netmodel.Kherson, RadiusKM: 50},
		{Prefix: netmodel.MustParsePrefix("91.198.5.0/24"), Country: "UA", Region: netmodel.Kyiv, RadiusKM: 100},
		// Sub-/24 drift: 64 addresses of the Kherson block point to Kyiv.
		{Prefix: netmodel.MustParsePrefix("91.198.4.192/26"), Country: "UA", Region: netmodel.Kyiv, RadiusKM: 500},
		{Prefix: netmodel.MustParsePrefix("176.8.0.0/19"), Country: "UA", Region: netmodel.Kyiv, RadiusKM: 200},
		{Prefix: netmodel.MustParsePrefix("52.0.0.0/24"), Country: "US", RadiusKM: 1000},
	})
}

func TestLookupMostSpecific(t *testing.T) {
	s := sampleSnapshot()
	e, ok := s.Lookup(netmodel.MustParseAddr("91.198.4.10"))
	if !ok || e.Region != netmodel.Kherson {
		t.Errorf("lookup .10 = %+v ok=%v", e, ok)
	}
	e, ok = s.Lookup(netmodel.MustParseAddr("91.198.4.200"))
	if !ok || e.Region != netmodel.Kyiv || e.Prefix.Bits != 26 {
		t.Errorf("lookup drifted .200 = %+v ok=%v (want /26 Kyiv)", e, ok)
	}
	e, ok = s.Lookup(netmodel.MustParseAddr("176.8.17.3"))
	if !ok || e.Region != netmodel.Kyiv {
		t.Errorf("lookup /19 = %+v", e)
	}
	if _, ok := s.Lookup(netmodel.MustParseAddr("8.8.8.8")); ok {
		t.Error("uncovered address located")
	}
	e, ok = s.Lookup(netmodel.MustParseAddr("52.0.0.9"))
	if !ok || e.Country != "US" || e.Region.Valid() {
		t.Errorf("US lookup = %+v", e)
	}
}

// TestLookupFindsEnclosingWiderThanSlash8: an entry wider than /8 locates an
// address however far below it the entries in between start.
func TestLookupFindsEnclosingWiderThanSlash8(t *testing.T) {
	s := NewSnapshot([]Entry{
		{Prefix: netmodel.MustParsePrefix("0.0.0.0/1"), Country: "US", RadiusKM: 5000},
		{Prefix: netmodel.MustParsePrefix("10.0.0.0/7"), Country: "UA", Region: netmodel.Kyiv, RadiusKM: 500},
		{Prefix: netmodel.MustParsePrefix("10.5.0.0/24"), Country: "UA", Region: netmodel.Kherson, RadiusKM: 50},
		{Prefix: netmodel.MustParsePrefix("90.0.0.0/24"), Country: "DE", RadiusKM: 1000},
	})
	for _, c := range []struct{ addr, want string }{
		{"10.5.0.7", "10.5.0.0/24"},
		{"11.255.0.1", "10.0.0.0/7"}, // 2²⁵ addresses above 10.5.0.0/24
		{"90.0.0.1", "90.0.0.0/24"},
		{"100.0.0.1", "0.0.0.0/1"}, // past 90.0.0.0/24 and the /7
	} {
		if e, ok := s.Lookup(netmodel.MustParseAddr(c.addr)); !ok || e.Prefix.String() != c.want {
			t.Errorf("Lookup(%s) = %+v/%v, want %s", c.addr, e, ok, c.want)
		}
	}
	if e, ok := s.Lookup(netmodel.MustParseAddr("200.0.0.1")); ok {
		t.Errorf("Lookup(200.0.0.1) = %+v, want none", e)
	}
	if bs := s.BlockShares(netmodel.MustParseBlock("11.255.0.0/24")); bs.Located != 256 || bs.PerRegion[netmodel.Kyiv] != 256 {
		t.Errorf("11.255.0.0/24 shares = %+v, want 256 in Kyiv", bs)
	}
	us := netmodel.MustParseBlock("100.0.0.0/24")
	if bs := s.BlockShares(us); bs.Located != 256 || bs.PerRegion != [netmodel.NumRegions + 1]uint16{} {
		t.Errorf("100.0.0.0/24 shares = %+v, want 256 located abroad", bs)
	}
	if cc, n := s.DominantAbroad(us, CountryUA); cc != "US" || n != 256 {
		t.Errorf("DominantAbroad(100.0.0.0/24) = %s/%d, want US/256", cc, n)
	}
}

func TestBlockShares(t *testing.T) {
	s := sampleSnapshot()
	bs := s.BlockShares(netmodel.MustParseBlock("91.198.4.0/24"))
	if bs.Located != 256 {
		t.Fatalf("Located = %d", bs.Located)
	}
	if bs.PerRegion[netmodel.Kherson] != 192 {
		t.Errorf("Kherson share = %d, want 192", bs.PerRegion[netmodel.Kherson])
	}
	if bs.PerRegion[netmodel.Kyiv] != 64 {
		t.Errorf("Kyiv share = %d, want 64", bs.PerRegion[netmodel.Kyiv])
	}
	r, n := bs.DominantRegion()
	if r != netmodel.Kherson || n != 192 {
		t.Errorf("dominant = %v/%d", r, n)
	}
	if got := bs.Share(netmodel.Kherson); got != 0.75 {
		t.Errorf("Share = %f", got)
	}
	// Uncovered block.
	empty := s.BlockShares(netmodel.MustParseBlock("10.0.0.0/24"))
	if empty.Located != 0 {
		t.Errorf("uncovered block Located = %d", empty.Located)
	}
	// Abroad block.
	usBlk := netmodel.MustParseBlock("52.0.0.0/24")
	us := s.BlockShares(usBlk)
	if us.Located != 256 || us.PerRegion != [netmodel.NumRegions + 1]uint16{} {
		t.Errorf("US block shares = %+v, want 256 located abroad", us)
	}
	if cc, n := s.DominantAbroad(usBlk, CountryUA); cc != "US" || n != 256 {
		t.Errorf("DominantAbroad = %s/%d, want US/256", cc, n)
	}
	if cc, n := s.DominantAbroad(netmodel.MustParseBlock("91.198.4.0/24"), CountryUA); cc != "" || n != 0 {
		t.Errorf("DominantAbroad of a home block = %q/%d", cc, n)
	}
}

func TestRegionIPCounts(t *testing.T) {
	s := sampleSnapshot()
	counts := s.RegionIPCounts()
	// /19 (8192) + /24 (256) + /26 (64) in Kyiv.
	if counts[netmodel.Kyiv] != 8192+256+64 {
		t.Errorf("Kyiv = %d", counts[netmodel.Kyiv])
	}
	if counts[netmodel.Kherson] != 256 {
		t.Errorf("Kherson = %d", counts[netmodel.Kherson])
	}
	cc := s.CountryIPCounts()
	if cc["US"] != 256 {
		t.Errorf("US = %d", cc["US"])
	}
}

// TestSnapshotCSVRoundTrip: WriteTo's CSV, read back with the standard CSV
// reader, gives the snapshot's entries in order.
func TestSnapshotCSVRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != s.Len()+1 || strings.Join(rows[0], ",") != "prefix,country,region,radius_km" {
		t.Fatalf("CSV = %q, want a header and %d entries", rows, s.Len())
	}
	for i, row := range rows[1:] {
		p, err := netmodel.ParsePrefix(row[0])
		if err != nil {
			t.Fatal(err)
		}
		region, _ := netmodel.RegionByName(row[2])
		rad, err := strconv.ParseUint(row[3], 10, 32)
		if err != nil {
			t.Fatal(err)
		}
		got := Entry{Prefix: p, Country: row[1], Region: region, RadiusKM: uint32(rad)}
		if got != s.Entries()[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got, s.Entries()[i])
		}
	}
}

func TestDB(t *testing.T) {
	db := NewDB([]*Snapshot{sampleSnapshot(), sampleSnapshot()})
	if db.Months() != 2 {
		t.Fatal("Months wrong")
	}
	if db.Month(0) == nil || db.Month(2) != nil || db.Month(-1) != nil {
		t.Error("Month bounds wrong")
	}
}
