package experiments

import (
	"fmt"
	"sort"

	"countrymon/internal/analysis"
	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/regional"
	"countrymon/internal/ripe"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
)

func init() {
	register("F1", "IPv4 churn per oblast, measurement targets (Fig 1)", figure1)
	register("F2", "Example block's monthly regional share (Fig 2)", figure2)
	register("F3", "Regional / non-regional / temporal ASes per oblast (Fig 3)", figure3)
	register("F4", "Share of regional /24 blocks per oblast (Fig 4)", figure4)
	register("F5", "Kherson ASes by regional share and BGP visibility (Fig 5)", figure5)
	register("F6", "Responsive IPs per oblast (Fig 6)", figure6)
	register("F7", "Responsive /24 blocks 2022-03 vs 2025-02 (Fig 7)", figure7)
	register("F18", "UA-delegated address ranges over time (Fig 18)", figure18)
	register("F19", "IPv4 churn per oblast, all addresses (Fig 19)", figure19)
	register("F20", "IPv6 churn per oblast (Fig 20)", figure20)
	register("F21", "Dominant-share CDF for multi-local /24s (Fig 21)", figure21)
	register("F22", "Sensitivity of regional AS count to (M, T_perc) (Fig 22)", figure22)
	register("F23", "Sensitivity of regional /24 count to (M, T_perc) (Fig 23)", figure23)
}

func churnReport(e *Env, id, title string, includeLeased bool) *Report {
	r := newReport(id, title)
	sc := e.Scenario()
	before := sc.GeoSnapshot(-1)
	after := sc.GeoSnapshot(sc.TL.NumMonths() - 1)
	blocks := append([]netmodel.BlockID(nil), sc.Space.Blocks()...)
	if includeLeased {
		for _, as := range sc.LeasedASes() {
			blocks = append(blocks, as.Blocks()...)
		}
	}
	rep := analysis.Churn(before, after, blocks)

	type rc struct {
		region netmodel.Region
		change float64
	}
	var rows []rc
	for _, region := range netmodel.Regions() {
		rows = append(rows, rc{region, rep.PerRegionChange[region] * 100})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].change < rows[j].change })
	for _, row := range rows {
		fl := ""
		if row.region.Frontline() {
			fl = " [frontline]"
		}
		r.addf("%-16s %+7.1f%%%s", row.region, row.change, fl)
	}
	r.addf("moved within Ukraine: %d addrs; moved abroad: %v", rep.MovedIntra, rep.MovedAbroad)

	r.metricVs("luhansk_change_pct", rep.PerRegionChange[netmodel.Luhansk]*100, -67)
	r.metricVs("kherson_change_pct", rep.PerRegionChange[netmodel.Kherson]*100, -62)
	r.metricVs("donetsk_change_pct", rep.PerRegionChange[netmodel.Donetsk]*100, -56)
	r.metricVs("chernihiv_change_pct", rep.PerRegionChange[netmodel.Chernihiv]*100, +24)
	intraShare := 0.0
	if rep.TotalMoved > 0 {
		intraShare = float64(rep.MovedIntra) / float64(rep.TotalMoved)
	}
	r.metricVs("intra_ua_share_of_moves", intraShare, 2.24/3.73)
	return r
}

func figure1(e *Env) *Report { return churnReport(e, "F1", "IPv4 churn (targets)", false) }

func figure19(e *Env) *Report { return churnReport(e, "F19", "IPv4 churn (all)", true) }

func figure2(e *Env) *Report {
	r := newReport("F2", "Example block share series")
	cl := e.Classifier()
	res := e.Classification().Regions[netmodel.Kherson]
	// A Kyivstar block regional to Kherson, as in the paper's 176.8.28/24
	// example; fall back to any regional block.
	sc := e.Scenario()
	var pick regional.BlockClassification
	found := false
	for _, bc := range res.RegionalBlocks() {
		if sc.Space.OriginOf(bc.Block) == 15895 {
			pick, found = bc, true
			break
		}
	}
	if !found {
		blocks := res.RegionalBlocks()
		if len(blocks) == 0 {
			r.addf("no regional blocks in Kherson")
			return r
		}
		pick = blocks[0]
	}
	meets := 0
	for m := 0; m < cl.Months(); m++ {
		share := cl.BlockShare(pick.Index, m, netmodel.Kherson)
		marker := " "
		if share >= 0.7 {
			marker = "*"
			meets++
		}
		r.addf("%s  %-10s share=%.2f %s", marker, e.Store().Timeline().MonthLabel(m), share, bar(share, 40))
	}
	r.addf("block %v (%v): meets M=0.7 in %d/%d months", pick.Block, sc.Space.OriginOf(pick.Block), meets, cl.Months())
	r.metricVs("months_meeting_threshold_frac", float64(meets)/float64(cl.Months()), 0.7)
	return r
}

func figure3(e *Env) *Report {
	r := newReport("F3", "AS classes per oblast")
	res := e.Classification()
	totalReg, totalAll := 0, 0
	r.addf("%-16s %9s %13s %9s %7s", "oblast", "regional", "non-regional", "temporal", "total")
	for _, region := range netmodel.Regions() {
		rr := res.Regions[region]
		reg, non, tmp := rr.CountAS(regional.ASRegional), rr.CountAS(regional.ASNonRegional), rr.CountAS(regional.ASTemporal)
		r.addf("%-16s %9d %13d %9d %7d", region, reg, non, tmp, reg+non+tmp)
		totalReg += reg
		totalAll += reg + non + tmp
	}
	share := 0.0
	if totalAll > 0 {
		share = float64(totalReg) / float64(totalAll)
	}
	r.addf("mean regional share of present ASes: %.0f%%", share*100)
	r.metricVs("mean_regional_as_share", share, 0.34)
	kh := res.Regions[netmodel.Kherson]
	r.metricVs("kherson_regional", float64(kh.CountAS(regional.ASRegional)), 13)
	r.metric("kherson_non_regional", float64(kh.CountAS(regional.ASNonRegional)))
	r.metric("kherson_temporal", float64(kh.CountAS(regional.ASTemporal)))
	return r
}

func figure4(e *Env) *Report {
	r := newReport("F4", "Regional block share per oblast")
	res := e.Classification()
	var shares []float64
	r.addf("%-16s %9s %7s %7s", "oblast", "regional", "total", "share")
	for _, region := range netmodel.Regions() {
		rr := res.Regions[region]
		reg, total := 0, 0
		for _, bc := range rr.Blocks {
			total++
			if bc.Regional {
				reg++
			}
		}
		share := 0.0
		if total > 0 {
			share = float64(reg) / float64(total)
		}
		shares = append(shares, share)
		r.addf("%-16s %9d %7d %6.0f%%", region, reg, total, share*100)
	}
	mean := 0.0
	for _, s := range shares {
		mean += s
	}
	mean /= float64(len(shares))
	r.metricVs("mean_regional_block_share", mean, 0.50)
	return r
}

func figure5(e *Env) *Report {
	r := newReport("F5", "Kherson ASes: regional share and BGP visibility")
	sc := e.Scenario()
	cl := e.Classifier()
	st := e.Store()
	type row struct {
		asn   netmodel.ASN
		name  string
		share float64
		gaps  int
	}
	var rows []row
	for _, asn := range sim.KhersonASNs() {
		as := sc.Space.Lookup(asn)
		if as == nil {
			continue
		}
		sum, n := 0.0, 0
		gaps := 0
		for m := 0; m < cl.Months(); m++ {
			sum += cl.ASShare(asn, m, netmodel.Kherson)
			n++
			routed := false
			for _, blk := range as.Blocks() {
				if st.MonthStats(sc.Space.BlockIndex(blk), m).RoutedRounds > 0 {
					routed = true
					break
				}
			}
			if !routed {
				gaps++
			}
		}
		rows = append(rows, row{asn, as.Name, sum / float64(n), gaps})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	regionalSet := make(map[netmodel.ASN]bool)
	for _, a := range sim.KhersonRegionalASNs() {
		regionalSet[a] = true
	}
	// The paper's visual: regional providers at the top, non-regional at
	// the bottom. Count inversions against ground truth.
	misordered := 0
	for i, rw := range rows {
		tag := "non-regional"
		if regionalSet[rw.asn] {
			tag = "regional"
			if i >= len(sim.KhersonRegionalASNs())+4 {
				misordered++
			}
		}
		r.addf("%-18s %-8s mean share=%.2f  BGP-gap months=%2d  %s", rw.name, rw.asn, rw.share, rw.gaps, tag)
	}
	r.metric("regional_below_top_group", float64(misordered))
	discontinued := 0
	for _, rw := range rows {
		if rw.gaps > 3 {
			discontinued++
		}
	}
	r.metricVs("ases_with_service_gaps", float64(discontinued), 7)
	return r
}

func figure6(e *Env) *Report {
	r := newReport("F6", "Responsive IPs per oblast (regional blocks)")
	res := e.Classification()
	st := e.Store()
	tl := st.Timeline()
	r.addf("%-16s %12s %12s %8s", "oblast", "regional IPs", "responsive", "share")
	var khShare, maxShare float64
	for _, region := range netmodel.Regions() {
		rr := res.Regions[region]
		var ips, resp float64
		for _, bc := range rr.RegionalBlocks() {
			for m := 0; m < tl.NumMonths(); m++ {
				if !bc.EvalMonths[m] {
					continue
				}
				ips += e.Classifier().BlockShare(bc.Index, m, region) * 256
				resp += st.MonthStats(bc.Index, m).MeanResp
			}
		}
		ips /= float64(tl.NumMonths())
		resp /= float64(tl.NumMonths())
		share := 0.0
		if ips > 0 {
			share = resp / ips
		}
		if region == netmodel.Kherson {
			khShare = share
		}
		if share > maxShare {
			maxShare = share
		}
		fl := ""
		if region.Frontline() {
			fl = " [frontline]"
		}
		r.addf("%-16s %12.0f %12.0f %7.1f%%%s", region, ips, resp, share*100, fl)
	}
	r.metric("kherson_responsive_share", khShare)
	r.metric("max_responsive_share", maxShare)
	r.addf("Kherson share %.1f%% (the paper reports the country's lowest, 3-11%%)", khShare*100)
	return r
}

func figure7(e *Env) *Report {
	r := newReport("F7", "Responsive blocks by oblast: first vs last month")
	res := e.Classification()
	st := e.Store()
	last := st.Timeline().NumMonths() - 1
	r.addf("%-16s %9s %9s %8s", "oblast", "2022-03", "2025-02", "change")
	var khFirst, khLast int
	allPresent := true
	for _, region := range netmodel.Regions() {
		rr := res.Regions[region]
		first, final := 0, 0
		for _, bc := range rr.RegionalBlocks() {
			if st.MonthStats(bc.Index, 0).EverActive >= signals.MinEverActive {
				first++
			}
			if st.MonthStats(bc.Index, last).EverActive >= signals.MinEverActive {
				final++
			}
		}
		change := 0.0
		if first > 0 {
			change = 100 * float64(final-first) / float64(first)
		}
		if region == netmodel.Kherson {
			khFirst, khLast = first, final
		}
		if final == 0 {
			allPresent = false
		}
		r.addf("%-16s %9d %9d %+7.0f%%", region, first, final, change)
	}
	r.metric("kherson_blocks_first", float64(khFirst))
	r.metric("kherson_blocks_last", float64(khLast))
	b := 0.0
	if allPresent {
		b = 1
	}
	r.metricVs("all_oblasts_measurable_2025", b, 1)
	return r
}

func figure18(e *Env) *Report {
	r := newReport("F18", "UA-delegated IPv4 ranges over time")
	sc := e.Scenario()
	years, addrs := sc.RIPEYearlySeries(2004, 2025)
	peak := uint64(0)
	for i, y := range years {
		r.addf("%d %12d addrs %s", y, addrs[i], bar(float64(addrs[i])/float64(maxU64(addrs)), 40))
		if addrs[i] > peak {
			peak = addrs[i]
		}
	}
	// Appendix B: 12% of prefixes recoded (1/3 to RU); ~7% net decline.
	base, final := e.RIPEEnds()
	d := ripe.DiffCountry(base, final, geodb.CountryUA)
	r.addf("recoded ranges: %d of %d (%.1f%%); to RU: %d", d.RecodedTotal(), len(base.CountryRecords(geodb.CountryUA)),
		100*float64(d.RecodedTotal())/float64(len(base.CountryRecords(geodb.CountryUA))), d.Recoded["RU"])
	recodedFrac := float64(d.RecodedTotal()) / float64(len(base.CountryRecords(geodb.CountryUA)))
	ruShare := 0.0
	if d.RecodedTotal() > 0 {
		ruShare = float64(d.Recoded["RU"]) / float64(d.RecodedTotal())
	}
	r.metricVs("recoded_prefix_frac", recodedFrac, 0.12)
	r.metricVs("recoded_to_ru_share", ruShare, 0.31)
	declineFrac := 1 - float64(final.CountryAddrCount(geodb.CountryUA))/float64(base.CountryAddrCount(geodb.CountryUA))
	r.metricVs("ua_addr_decline_frac", declineFrac, 0.07)
	return r
}

func figure20(e *Env) *Report {
	r := newReport("F20", "IPv6 churn per oblast")
	v6 := e.Scenario().IPv6ChurnByRegion()
	growing := 0
	for _, region := range netmodel.Regions() {
		r.addf("%-16s %+7.0f%%", region, v6[region])
		if v6[region] > 0 {
			growing++
		}
	}
	r.metric("oblasts_with_v6_growth", float64(growing))
	r.metricVs("rivne_growth_pct", v6[netmodel.Rivne], 150)
	return r
}

func figure21(e *Env) *Report {
	r := newReport("F21", "Dominant-share CDF of multi-local blocks")
	shares := e.Classifier().MultiLocalDominantShares()
	cdf := analysis.NewCDF(shares)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		r.addf("p%.0f dominant share = %.2f", q*100, cdf.Quantile(q))
	}
	r.addf("multi-local block-month observations: %d", len(shares))
	r.metric("median_dominant_share", cdf.Median())
	r.metric("multi_local_observations", float64(len(shares)))
	return r
}

func sensitivitySweep(e *Env, id, title string, blocks bool) *Report {
	r := newReport(id, title)
	cl := e.Classifier()
	params := regional.DefaultParams()
	header := "M:      "
	ms := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}
	for _, m := range ms {
		header += fmt.Sprintf("%8.1f", m)
	}
	r.addf("%s", header)
	// Every (T_perc, M) grid point is an independent classification of the
	// precomputed share tables: sweep the whole grid across the worker pool,
	// then assemble the report lines in grid order.
	tps := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}
	counts := par.Map(len(tps)*len(ms), func(i int) int {
		p := params
		p.TPerc, p.M = tps[i/len(ms)], ms[i%len(ms)]
		if blocks {
			seen := make(map[int]bool)
			for _, region := range netmodel.Regions() {
				for _, bc := range cl.Classify(region, p).RegionalBlocks() {
					seen[bc.Index] = true
				}
			}
			return len(seen)
		}
		return cl.ClassifyAll(p).NationalCounts()[regional.ASRegional]
	})
	var defaultCount, strictCount, relaxedCount int
	for ti, tp := range tps {
		line := fmt.Sprintf("Tp=%.1f: ", tp)
		for mi, m := range ms {
			count := counts[ti*len(ms)+mi]
			line += fmt.Sprintf("%8d", count)
			switch {
			case m == 0.7 && tp == 0.7:
				defaultCount = count
			case m == 0.9 && tp == 0.9:
				strictCount = count
			case m == 0.5 && tp == 0.5:
				relaxedCount = count
			}
		}
		r.addf("%s", line)
	}
	r.metric("count_default_0.7", float64(defaultCount))
	r.metric("count_strict_0.9", float64(strictCount))
	r.metric("count_relaxed_0.5", float64(relaxedCount))
	return r
}

func figure22(e *Env) *Report {
	return sensitivitySweep(e, "F22", "Regional AS count vs (M, T_perc)", false)
}

func figure23(e *Env) *Report {
	return sensitivitySweep(e, "F23", "Regional /24 count vs (M, T_perc)", true)
}

func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac * float64(width))
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func maxU64(vals []uint64) uint64 {
	var m uint64 = 1
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}
