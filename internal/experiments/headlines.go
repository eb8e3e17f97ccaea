package experiments

import (
	"sort"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/passive"
	"countrymon/internal/signals"
)

func init() {
	register("H2", "Churn attribution: who moved the addresses (§4.1)", headline2)
	register("H3", "Geolocation precision: regional vs non-regional radius (§4.3)", headline3)
	register("H4", "Passive (CDN volume) vs active detection (Table 1)", headline4)
}

// headline4 contrasts the passive comparator with the active pipeline on
// the two Kherson validation events: both see the oblast-wide cable cut in
// region volume; only active full-block scans attribute anything at AS
// granularity (e.g. the Status seizure dip is a single provider's IPS▲).
func headline4(e *Env) *Report {
	r := newReport("H4", "Passive vs active")
	tl := e.Store().Timeline()
	rr := e.Classification().Regions[netmodel.Kherson]
	vol := passive.VolumeSeries(e.Store(), e.Classifier(), rr)
	d := passive.Detect(vol, tl, 0.5)

	covered := func(det *signals.Detection, at time.Time) bool {
		round := tl.Round(at)
		for _, o := range det.Outages {
			if o.Start <= round && round < o.End {
				return true
			}
		}
		return false
	}
	cable := time.Date(2022, 5, 1, 12, 0, 0, 0, time.UTC)
	passiveCable := covered(d, cable)
	activeCable := covered(e.OurRegion(netmodel.Kherson), cable)

	// The seizure: attributable only at AS level.
	seizure := time.Date(2022, 5, 13, 10, 30, 0, 0, time.UTC)
	activeSeizure := covered(e.OurAS(25482), seizure)

	r.addf("oblast-wide cable cut: passive=%v active=%v", passiveCable, activeCable)
	r.addf("Status seizure (single-AS IPS▲ dip): active AS-level=%v; passive has no AS dimension", activeSeizure)
	r.addf("passive outage events for Kherson (region volume only): %d", len(d.Outages))
	r.metricVs("passive_detects_cable_cut", b2f(passiveCable), 1)
	r.metricVs("active_detects_cable_cut", b2f(activeCable), 1)
	r.metricVs("active_attributes_seizure", b2f(activeSeizure), 1)
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// headline2 reproduces §4.1's attribution of the 3.7M moved addresses: the
// intra-Ukraine component is dominated by national ISPs' dynamic pools, the
// outbound component by reassignments to Amazon/the US, and of Kherson's
// initial addresses only ~26% remain.
func headline2(e *Env) *Report {
	r := newReport("H2", "Churn attribution by AS")
	sc := e.Scenario()
	before := sc.GeoSnapshot(-1)
	after := sc.GeoSnapshot(sc.TL.NumMonths() - 1)

	movedIntra := map[netmodel.ASN]int64{}
	movedAbroad := map[netmodel.ASN]int64{}
	var khStay, khIntra, khAbroad, khTotal int64
	amazonTakeover := int64(0)
	for bi, blk := range sc.Space.Blocks() {
		b := before.BlockShares(blk)
		a := after.BlockShares(blk)
		br, bn := b.DominantRegion()
		ar, _ := a.DominantRegion()
		asn := sc.Space.OriginOf(blk)
		if br.Valid() && ar.Valid() && br != ar {
			movedIntra[asn] += int64(bn)
		}
		if br.Valid() && !ar.Valid() && a.Located > 0 {
			movedAbroad[asn] += int64(bn)
		}
		if br == netmodel.Kherson {
			khTotal += int64(bn)
			switch {
			case ar == netmodel.Kherson:
				khStay += int64(bn)
			case ar.Valid():
				khIntra += int64(bn)
			default:
				khAbroad += int64(bn)
			}
		}
		if bt := sc.BlockTraitsAt(bi); bt.MoveASN == 16509 {
			amazonTakeover += 256
		}
	}

	type row struct {
		asn netmodel.ASN
		n   int64
	}
	top := func(m map[netmodel.ASN]int64, k int) []row {
		var rows []row
		for asn, n := range m {
			rows = append(rows, row{asn, n})
		}
		// Ties break on the ASN: map order must not pick the order, or
		// at the k cut the membership, of what is printed.
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].asn < rows[j].asn
		})
		if len(rows) > k {
			rows = rows[:k]
		}
		return rows
	}
	r.addf("top intra-Ukraine movers (the paper names Ukrtelecom, Kyivstar, Vodafone, Vega):")
	nationalTop := 0
	for i, rw := range top(movedIntra, 6) {
		name := ""
		if as := sc.Space.Lookup(rw.asn); as != nil {
			name = as.Name
		}
		tr := sc.ASTraitsOf(rw.asn)
		tag := ""
		if tr != nil && tr.National {
			tag = " [national]"
			if i < 4 {
				nationalTop++
			}
		}
		r.addf("  %-10s %-16s %8d addrs%s", rw.asn, name, rw.n, tag)
	}
	r.addf("top outbound movers:")
	for _, rw := range top(movedAbroad, 4) {
		name := ""
		if as := sc.Space.Lookup(rw.asn); as != nil {
			name = as.Name
		}
		r.addf("  %-10s %-16s %8d addrs", rw.asn, name, rw.n)
	}
	if khTotal > 0 {
		r.addf("Kherson fate: %.0f%% stayed, %.0f%% moved within Ukraine, %.0f%% abroad",
			100*float64(khStay)/float64(khTotal), 100*float64(khIntra)/float64(khTotal), 100*float64(khAbroad)/float64(khTotal))
		r.metricVs("kherson_stayed_frac", float64(khStay)/float64(khTotal), 0.26)
		r.metricVs("kherson_intra_frac", float64(khIntra)/float64(khTotal), 0.45)
		r.metricVs("kherson_abroad_frac", float64(khAbroad)/float64(khTotal), 0.29)
	}
	r.addf("addresses now announced by Amazon (AS16509): %d (paper: 519K at full scale)", amazonTakeover)
	r.metricVs("national_isps_among_top4_intra_movers", float64(nationalTop), 4)
	r.metric("amazon_takeover_addrs", float64(amazonTakeover))
	return r
}

// headline3 reproduces §4.3's precision finding: regional /24s geolocate
// with a ~50 km median radius in 2022 degrading to ~200 km by 2025, while
// non-regional blocks sit at a stable ~500 km.
func headline3(e *Env) *Report {
	r := newReport("H3", "Geolocation precision by class")
	sc := e.Scenario()
	cl := e.Classifier()
	res := e.Classification()

	regionalBlocks := make(map[int]bool)
	for _, rr := range res.Regions {
		for _, bc := range rr.RegionalBlocks() {
			regionalBlocks[bc.Index] = true
		}
	}
	medianAt := func(month int, regional bool) float64 {
		var vals []uint32
		for bi := range sc.Blocks() {
			if regionalBlocks[bi] != regional {
				continue
			}
			if v := cl.BlockRadius(bi, month); v > 0 {
				vals = append(vals, uint32(v))
			}
		}
		return medianU32(vals)
	}
	last := cl.Months() - 1
	reg2022 := medianAt(0, true)
	reg2025 := medianAt(last, true)
	non2022 := medianAt(0, false)
	non2025 := medianAt(last, false)
	r.addf("regional /24s: median radius %.0f km (2022) → %.0f km (2025)", reg2022, reg2025)
	r.addf("non-regional:  median radius %.0f km (2022) → %.0f km (2025)", non2022, non2025)
	r.metricVs("regional_radius_2022_km", reg2022, 50)
	r.metricVs("regional_radius_2025_km", reg2025, 200)
	r.metricVs("nonregional_radius_km", non2025, 500)
	return r
}

func medianU32(vals []uint32) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return float64(vals[len(vals)/2])
}
