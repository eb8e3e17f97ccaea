package sim

import (
	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
)

// Geolocation ground truth → IPInfo-like monthly snapshots.
//
// Noise model (§4.2's three scenarios, so the classifier has something real
// to mitigate):
//   - IP drift: a persistent sub-/24 share of some blocks geolocates to a
//     neighbouring region (BlockTraits.DriftFrac/DriftRegion).
//   - Block drift: with small per-month probability a slice of a block is
//     mislocated to a random region for that month only (also the source of
//     "temporal" AS presence).
//   - Regional churn: scripted MoveMonth relocations inside the country or
//     abroad (BlockTraits.Move*), plus Dynamic blocks of national ISPs that
//     hop regions every few months.

// transientDriftProb is the per-block per-month probability of a one-month
// mislocation.
const transientDriftProb = 0.012

// GeoSnapshot builds the geolocation database snapshot for a dense campaign
// month. Month −1 is the pre-war snapshot (2022-02-01) used by the churn
// analysis.
func (s *Scenario) GeoSnapshot(month int) *geodb.Snapshot {
	entries := make([]geodb.Entry, 0, len(s.blocks)+len(s.blocks)/4)
	for bi := range s.blocks {
		entries = s.blockGeoEntries(bi, month, entries)
	}
	// Leased foreign-delegated ASes still geolocate to Kherson.
	for _, as := range s.leased {
		for _, b := range as.Blocks() {
			entries = append(entries, geodb.Entry{
				Prefix:   netmodel.Prefix{Base: b.First(), Bits: 24},
				Country:  s.Country,
				Region:   as.HQ,
				RadiusKM: s.radiusKM(month, true),
			})
		}
	}
	return geodb.NewSnapshot(entries)
}

func (s *Scenario) blockGeoEntries(bi, month int, entries []geodb.Entry) []geodb.Entry {
	bt := &s.blocks[bi]
	bp := netmodel.Prefix{Base: bt.Block.First(), Bits: 24}

	country := s.Country
	region := bt.HomeRegion
	if bt.Dynamic {
		region = s.dynamicRegion(bi, month)
	}
	if bt.Moved(month) {
		if bt.MoveRegion.Valid() {
			region = bt.MoveRegion
		} else {
			country, region = bt.MoveCountry, netmodel.RegionNone
		}
	}

	radius := s.radiusKM(month, bt.Static && country == s.Country)
	if country != s.Country {
		radius = 1000
	}

	main := geodb.Entry{Prefix: bp, Country: country, Region: region, RadiusKM: radius}

	// Persistent IP drift: the top quarter/eighth of the block points to a
	// neighbouring region.
	if bt.DriftFrac > 0 && country == s.Country && bt.DriftRegion.Valid() {
		bits := driftBits(float64(bt.DriftFrac))
		sub := netmodel.Prefix{
			Base: bt.Block.First() + netmodel.Addr(256-(256>>(bits-24))),
			Bits: bits,
		}
		entries = append(entries, main, geodb.Entry{
			Prefix: sub, Country: s.Country, Region: bt.DriftRegion, RadiusKM: 500,
		})
		return entries
	}

	// Transient block drift: a /26 slice mislocates for one month.
	h := netmodel.Hash3(s.Cfg.Seed^0xd41f7, uint64(bt.Block), uint64(int64(month)+7))
	if country == s.Country && !bt.Static && netmodel.UnitFloat(h) < transientDriftProb {
		target := netmodel.Region(1 + h>>32%uint64(netmodel.NumRegions))
		if target != region {
			sub := netmodel.Prefix{Base: bt.Block.First() + 128, Bits: 26}
			entries = append(entries, main, geodb.Entry{
				Prefix: sub, Country: s.Country, Region: target, RadiusKM: 1000,
			})
			return entries
		}
	}
	return append(entries, main)
}

// dynamicRegion is where a national ISP's dynamic pool block geolocates in
// the given month: it hops to a fresh weighted-random region every ~3
// months.
func (s *Scenario) dynamicRegion(bi, month int) netmodel.Region {
	epoch := (month + 1) / 3
	h := netmodel.Hash3(s.Cfg.Seed^0xdba, uint64(bi), uint64(epoch))
	return weightedRegion(h)
}

// driftBits maps a drift fraction to a carve-out prefix length.
func driftBits(frac float64) uint8 {
	switch {
	case frac >= 0.4:
		return 25 // 128 addresses
	case frac >= 0.2:
		return 26 // 64
	default:
		return 27 // 32
	}
}

// radiusKM models IPInfo's confidence radius: regional/static networks are
// precise (50 km in 2022 degrading to 200 km by 2025); carrier pools sit at
// 500 km (§4.3).
func (s *Scenario) radiusKM(month int, static bool) uint32 {
	if month < 0 {
		month = 0
	}
	if static {
		r := 50 + 150*month/36
		if r > 200 {
			r = 200
		}
		return uint32(r)
	}
	return 500
}

// GeoDB builds all monthly snapshots (0..NumMonths-1). Months are
// independent, so they shard across the worker pool.
func (s *Scenario) GeoDB() *geodb.DB {
	return geodb.NewDB(par.Map(s.TL.NumMonths(), s.GeoSnapshot))
}

// IPv6ChurnByRegion returns the synthetic IPv6 address-count change per
// oblast between 2022-02 and 2025-02 (Fig 20): adoption grows nearly
// everywhere, most strongly in regions that started near zero.
func (s *Scenario) IPv6ChurnByRegion() map[netmodel.Region]float64 {
	out := make(map[netmodel.Region]float64, netmodel.NumRegions)
	for _, r := range netmodel.Regions() {
		var pct float64
		switch r {
		case netmodel.Rivne:
			pct = 150
		case netmodel.Ternopil:
			pct = 120
		case netmodel.Khmelnytskyi:
			pct = 95
		case netmodel.Luhansk, netmodel.Donetsk:
			pct = -8
		default:
			pct = 10 + 50*netmodel.UnitFloat(netmodel.Hash2(s.Cfg.Seed^0x6666, uint64(r)))
		}
		out[r] = pct
	}
	return out
}
