package regional

import (
	"math"
	"reflect"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
)

// refClassifier is Classifier as it was when every block's tables were three
// slices of their own and homeIPs a map of per-AS slices.
type refClassifier struct {
	space   *netmodel.Space
	store   *dataset.Store
	months  int
	country string

	// shares[bi][m] is the block's address distribution in month m.
	shares [][]geodb.BlockShares
	// radius[bi][m] is the dominant geolocation entry's confidence radius.
	radius [][]uint16
	// blockRouted[bi][m] reports BGP coverage during month m.
	blockRouted [][]bool
	// homeIPs[asn][m] is the AS's home-country-located address count (the
	// N_t(e) denominator for AS shares).
	homeIPs map[netmodel.ASN][]int32
}

// refNewClassifierCountry is NewClassifierCountry as it was, kept verbatim
// as the oracle of the flat tables.
func refNewClassifierCountry(space *netmodel.Space, db *geodb.DB, store *dataset.Store, country string) *refClassifier {
	months := db.Months()
	c := &refClassifier{
		space:       space,
		store:       store,
		months:      months,
		country:     country,
		shares:      make([][]geodb.BlockShares, space.NumBlocks()),
		radius:      make([][]uint16, space.NumBlocks()),
		blockRouted: make([][]bool, space.NumBlocks()),
		homeIPs:     make(map[netmodel.ASN][]int32),
	}
	// Per-block share tables are independent: shard them across the worker
	// pool. Each goroutine writes only its own rows.
	par.ForEach(space.NumBlocks(), func(bi int) {
		blk := space.Blocks()[bi]
		c.shares[bi] = make([]geodb.BlockShares, months)
		c.radius[bi] = make([]uint16, months)
		c.blockRouted[bi] = make([]bool, months)
		si := store.BlockIndex(blk)
		for m := 0; m < months; m++ {
			snap := db.Month(m)
			bs := snap.BlockSharesFor(blk, c.country)
			c.shares[bi][m] = bs
			if e, ok := snap.Lookup(blk.Addr(128)); ok {
				c.radius[bi][m] = uint16(min32(e.RadiusKM, 65535))
			}
			if si >= 0 {
				st := store.MonthStats(si, m)
				c.blockRouted[bi][m] = st.RoutedRounds > 0
			}
		}
	})

	// AS denominators: group blocks per origin AS sequentially (map writes),
	// then sum each AS's monthly home-country addresses in parallel.
	// Integer addition is order-independent, so the result is identical to
	// the sequential accumulation.
	asBlocks := make(map[netmodel.ASN][]int32)
	asns := make([]netmodel.ASN, 0, 64)
	for bi, blk := range space.Blocks() {
		asn := space.OriginOf(blk)
		if _, ok := asBlocks[asn]; !ok {
			asns = append(asns, asn)
			c.homeIPs[asn] = make([]int32, months)
		}
		asBlocks[asn] = append(asBlocks[asn], int32(bi))
	}
	par.ForEach(len(asns), func(ai int) {
		asn := asns[ai]
		home := c.homeIPs[asn]
		for _, bi := range asBlocks[asn] {
			for m := 0; m < months; m++ {
				bs := &c.shares[bi][m]
				for r := netmodel.Region(1); int(r) <= netmodel.NumRegions; r++ {
					home[m] += int32(bs.PerRegion[r])
				}
			}
		}
	})
	return c
}

// Classify is Classifier.Classify as it was when it made every block's
// EvalMonths before asking whether the block is in the region and kept a
// map entry and two slices per AS, kept verbatim as the oracle.
func (c *refClassifier) Classify(region netmodel.Region, p Params) *RegionResult {
	res := &RegionResult{
		Region:      region,
		Params:      p,
		AS:          make(map[netmodel.ASN]ASClass),
		regionalIdx: make(map[int]int),
	}

	// Block-level classification.
	for bi, blk := range c.space.Blocks() {
		present := false
		routedMonths := 0
		meet := 0
		evalMonths := make([]bool, c.months)
		shareSum, shareN := 0.0, 0
		for m := 0; m < c.months; m++ {
			share := c.shares[bi][m].Share(region)
			if c.shares[bi][m].PerRegion[region] > 0 {
				present = true
			}
			if !c.blockRouted[bi][m] {
				continue
			}
			routedMonths++
			if share >= p.M {
				meet++
				evalMonths[m] = true
				shareSum += share
				shareN++
			}
		}
		if !present {
			continue
		}
		need := int(math.Ceil(p.TPerc * float64(routedMonths)))
		regionalBlk := routedMonths > 0 && meet >= need && need > 0
		bc := BlockClassification{Index: bi, Block: blk, Regional: regionalBlk, EvalMonths: evalMonths}
		if shareN > 0 {
			bc.MeanShare = shareSum / float64(shareN)
		}
		if regionalBlk {
			res.regionalIdx[bi] = len(res.Blocks)
		}
		res.Blocks = append(res.Blocks, bc)
	}

	// AS-level classification over the same months.
	type asAgg struct {
		inRegion    []int32 // addresses in region per month
		routed      []bool
		maxIPs      int32
		maxShare    float64
		meet, total int
	}
	aggs := make(map[netmodel.ASN]*asAgg)
	for bi, blk := range c.space.Blocks() {
		asn := c.space.OriginOf(blk)
		a := aggs[asn]
		if a == nil {
			a = &asAgg{inRegion: make([]int32, c.months), routed: make([]bool, c.months)}
			aggs[asn] = a
		}
		for m := 0; m < c.months; m++ {
			a.inRegion[m] += int32(c.shares[bi][m].PerRegion[region])
			if c.blockRouted[bi][m] {
				a.routed[m] = true
			}
		}
	}
	for asn, a := range aggs {
		home := c.homeIPs[asn]
		present := false
		for m := 0; m < c.months; m++ {
			n := a.inRegion[m]
			if n == 0 {
				continue
			}
			present = true
			if n > a.maxIPs {
				a.maxIPs = n
			}
			var share float64
			if home[m] > 0 {
				share = float64(n) / float64(home[m])
			}
			if share > a.maxShare {
				a.maxShare = share
			}
			if !a.routed[m] {
				continue
			}
			a.total++
			if share >= p.M {
				a.meet++
			}
		}
		if !present {
			continue
		}
		need := int(math.Ceil(p.TPerc * float64(a.total)))
		switch {
		case a.total > 0 && need > 0 && a.meet >= need:
			res.AS[asn] = ASRegional
		case int(a.maxIPs) < p.TemporalIPs && a.maxShare < p.TemporalShare:
			res.AS[asn] = ASTemporal
		default:
			res.AS[asn] = ASNonRegional
		}
	}
	return res
}

// smallWorld is a hand-built world over six months of daily rounds: a
// Kherson regional AS whose blocks drift, move to Kyiv, lose routing and
// lend addresses abroad and to region-less entries; a national AS split
// between Kyiv, Kherson and Lviv with a block the database never locates
// and one the store never measured; a foreign AS with a month of Kherson
// noise and a block never routed; and absent more national blocks that are
// only ever in Lviv.
func smallWorld(t testing.TB, absent int) (*netmodel.Space, *geodb.DB, *dataset.Store) {
	t.Helper()
	p := netmodel.MustParsePrefix
	national := []netmodel.Prefix{p("10.1.0.0/22")}
	for i := 0; i < absent; i++ {
		national = append(national, netmodel.Prefix{Base: netmodel.MustParseAddr("10.9.0.0") + netmodel.Addr(i*256), Bits: 24})
	}
	space := netmodel.MustBuildSpace([]*netmodel.AS{
		{ASN: 100, Name: "regional", HQ: netmodel.Kherson, Prefixes: []netmodel.Prefix{p("10.0.0.0/22")}},
		{ASN: 200, Name: "national", HQ: netmodel.Kyiv, Prefixes: national},
		{ASN: 300, Name: "foreign", Foreign: true, Prefixes: []netmodel.Prefix{p("10.2.0.0/23")}},
	})
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(0, 6, -1), 24*time.Hour)
	months := tl.NumMonths()

	var snaps []*geodb.Snapshot
	for m := 0; m < months; m++ {
		ua := func(s string, r netmodel.Region, km uint32) geodb.Entry {
			return geodb.Entry{Prefix: p(s), Country: "UA", Region: r, RadiusKM: km}
		}
		es := []geodb.Entry{
			ua("10.0.0.0/24", netmodel.Kherson, 20),
			ua("10.0.1.0/24", netmodel.Kherson, 30),
			ua("10.0.1.192/26", netmodel.Kyiv, 500),
			ua("10.0.3.0/24", netmodel.Kherson, 40),
			ua("10.1.0.0/24", netmodel.Kyiv, 100),
			ua("10.1.1.0/25", netmodel.Kherson, 200),
			ua("10.1.1.128/25", netmodel.Kyiv, 200),
			ua("10.1.2.0/24", netmodel.Lviv, 100),
			{Prefix: p("10.2.0.0/23"), Country: "US", RadiusKM: 1000},
		}
		if m < 3 {
			es = append(es, ua("10.0.2.0/24", netmodel.Kherson, 25))
		} else {
			es = append(es, ua("10.0.2.0/24", netmodel.Kyiv, 70000))
		}
		if m%2 == 1 {
			es = append(es, geodb.Entry{Prefix: p("10.0.3.0/25"), Country: "US", RadiusKM: 900}, ua("10.0.3.128/27", netmodel.RegionNone, 1000))
		}
		if m == 1 {
			es = append(es, ua("10.2.1.0/28", netmodel.Kherson, 5000))
		}
		if absent > 0 {
			es = append(es, geodb.Entry{Prefix: netmodel.Prefix{Base: national[1].Base, Bits: 16}, Country: "UA", Region: netmodel.Lviv, RadiusKM: 60})
		}
		snaps = append(snaps, geodb.NewSnapshot(es))
	}

	var measured []netmodel.BlockID
	for _, blk := range space.Blocks() {
		if blk != netmodel.MustParseBlock("10.1.3.0/24") {
			measured = append(measured, blk)
		}
	}
	st := dataset.NewStore(tl, measured)
	for _, blk := range measured {
		si := st.BlockIndex(blk)
		for r := 0; r < tl.NumRounds(); r++ {
			m := tl.MonthOfRound(r)
			routed := true
			switch blk {
			case netmodel.MustParseBlock("10.0.1.0/24"):
				routed = m < 4
			case netmodel.MustParseBlock("10.0.3.0/24"):
				routed = m != 2 || r%7 == 0
			case netmodel.MustParseBlock("10.2.1.0/24"):
				routed = false
			}
			st.SetRound(si, r, 3, routed)
		}
	}
	return space, geodb.NewDB(snaps), st
}

// checkClassifierMatchesRef compares the flat tables with the oracle's cell
// by cell, then every region's RegionResult, field by field, at four
// parameter points.
func checkClassifierMatchesRef(t *testing.T, name string, space *netmodel.Space, db *geodb.DB, st *dataset.Store, country string) {
	t.Helper()
	c := NewClassifierCountry(space, db, st, country)
	ref := refNewClassifierCountry(space, db, st, country)
	for bi := range space.Blocks() {
		for m := 0; m < ref.months; m++ {
			if *c.BlockShares(bi, m) != ref.shares[bi][m] || c.BlockRadius(bi, m) != ref.radius[bi][m] || c.blockRouted[bi*c.months+m] != ref.blockRouted[bi][m] {
				t.Fatalf("%s: block %d month %d: tables differ from the oracle", name, bi, m)
			}
		}
	}
	for asn, home := range ref.homeIPs {
		if got := c.homeRow(asn); !reflect.DeepEqual(got, home) {
			t.Fatalf("%s: %v home IPs %v, oracle %v", name, asn, got, home)
		}
	}
	if len(c.asns) != len(ref.homeIPs) {
		t.Fatalf("%s: %d ASes, oracle %d", name, len(c.asns), len(ref.homeIPs))
	}
	for _, p := range []Params{
		DefaultParams(),
		{M: 0.5, TPerc: 0.5, TemporalIPs: 256, TemporalShare: 0.10},
		{M: 0.9, TPerc: 0.9, TemporalIPs: 16, TemporalShare: 0.02},
		{M: 0, TPerc: 0.3, TemporalIPs: 1000, TemporalShare: 0.5},
	} {
		all := c.ClassifyAll(p)
		for _, r := range netmodel.Regions() {
			got, want := all.Regions[r], ref.Classify(r, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v %+v: RegionResult differs from the oracle:\n got %+v\nwant %+v", name, r, p, got, want)
			}
			for _, bc := range got.Blocks {
				if cap(bc.EvalMonths) != len(bc.EvalMonths) {
					t.Fatalf("%s %v: block %d's EvalMonths has room to grow into the next block's", name, r, bc.Index)
				}
			}
		}
	}
}

// TestClassifyAllMatchesRef: the flat tables and the present-first
// classification give the oracle's tables and RegionResults on the small
// world (at home in Ukraine and in a country it has no region for) and on
// simulated worlds at two seeds.
func TestClassifyAllMatchesRef(t *testing.T) {
	space, db, st := smallWorld(t, 3)
	checkClassifierMatchesRef(t, "small", space, db, st, geodb.CountryUA)
	checkClassifierMatchesRef(t, "small/US", space, db, st, "US")
	sc, st42, _, _ := fixture(t)
	checkClassifierMatchesRef(t, "sim seed 42", sc.Space, sc.GeoDB(), st42, geodb.CountryUA)
	sc7 := sim.MustBuild(sim.Config{Seed: 7, Scale: 0.02})
	checkClassifierMatchesRef(t, "sim seed 7", sc7.Space, sc7.GeoDB(), sc7.GenerateStore(nil), geodb.CountryUA)
}

// TestClassifyAllocs: what classifying a region costs the heap does not grow
// with the blocks that never were in it (every block's EvalMonths was made
// before its presence was known, and every AS had a map entry and two
// slices).
func TestClassifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(absent int) float64 {
		space, db, st := smallWorld(t, absent)
		c := NewClassifier(space, db, st)
		if res := c.Classify(netmodel.Kherson, DefaultParams()); len(res.RegionalBlocks()) == 0 || len(res.Blocks) >= space.NumBlocks()-absent {
			t.Fatalf("%d absent: %d of %d blocks in Kherson, %d regional: the world lost its shape", absent, len(res.Blocks), space.NumBlocks(), len(res.RegionalBlocks()))
		}
		return testing.AllocsPerRun(50, func() { c.Classify(netmodel.Kherson, DefaultParams()) })
	}
	few, many := allocs(2), allocs(200)
	if many != few {
		t.Errorf("Classify allocates %.0f objects with 2 blocks absent from the region, %.0f with 200", few, many)
	}
}
