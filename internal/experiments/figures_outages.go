package experiments

import (
	"fmt"
	"strings"
	"time"

	"countrymon/internal/analysis"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/render"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
)

func init() {
	register("F8", "Regional outage timelines by signal (Fig 8)", figure8)
	register("F9", "Monthly outage hours: frontline vs non-frontline, ours vs IODA (Fig 9)", figure9)
	register("F10", "Power vs Internet outages 2024 with correlation (Fig 10)", figure10)
	register("F11", "Kherson three-event AS timeline (Fig 11)", figure11)
	register("F12", "Monthly RTTs of Kherson ASes (Fig 12)", figure12)
	register("F13", "Status seizure signal ratios (Fig 13)", figure13)
	register("F14", "Status per-block liberation outage (Fig 14)", figure14)
	register("F15", "AS outage coverage CDF vs IODA (Fig 15)", figure15)
	register("F16", "Outage starts per day, common ASes (Fig 16)", figure16)
	register("F17", "Signal shares of detected outages (Fig 17)", figure17)
	register("F24", "Outage severity threshold sweep (Fig 24)", figure24)
	register("F25", "IODA regional outage replication (Fig 25)", figure25)
	register("F26", "IODA power correlation replication (Fig 26)", figure26)
	register("F27", "Signal stability: FBS vs Trinocular SNR (Fig 27)", figure27)
	register("F28", "Full Kherson AS timeline (Fig 28)", figure28)
	register("H1", "Probing-interval outage miss rate (§5.4)", headline1)
}

func figure8(e *Env) *Report {
	r := newReport("F8", "Regional outages by signal")
	tl := e.Store().Timeline()
	missing := e.Store().MissingRounds()
	var flHours, nflHours float64
	var flN, nflN int
	var rows []render.LabeledDetection
	r.addf("%-16s %7s %7s %7s %8s %10s", "oblast", "BGP★", "FBS■", "IPS▲", "events", "hours")
	for _, region := range netmodel.Regions() {
		d := e.OurRegion(region)
		by := d.CountBySignal()
		hours := float64(d.TotalRounds()) * tl.Interval().Hours()
		fl := ""
		if region.Frontline() {
			fl = " [frontline]"
			flHours += hours
			flN++
		} else {
			nflHours += hours
			nflN++
		}
		r.addf("%-16s %7d %7d %7d %8d %10.0f%s", region,
			by[signals.SignalBGP], by[signals.SignalFBS], by[signals.SignalIPS], len(d.Outages), hours, fl)
		rows = append(rows, render.LabeledDetection{Label: region.String(), Detection: d, Missing: missing})
	}
	r.addf("%s", "")
	for _, line := range strings.Split(strings.TrimRight(render.Timeline(tl, rows, 96), "\n"), "\n") {
		r.addf("%s", line)
	}
	r.metric("frontline_mean_hours", flHours/float64(flN))
	r.metric("nonfrontline_mean_hours", nflHours/float64(nflN))
	r.addf("frontline mean %.0f h vs non-frontline mean %.0f h", flHours/float64(flN), nflHours/float64(nflN))
	if nflHours/float64(nflN) > 0 {
		r.metric("frontline_over_nonfrontline_ratio", (flHours/float64(flN))/(nflHours/float64(nflN)))
	}
	return r
}

func groupMonthlyHours(e *Env, regions []netmodel.Region, ioda bool) []float64 {
	tl := e.Store().Timeline()
	var acc []float64
	for _, region := range regions {
		var d *signals.Detection
		if ioda {
			d = e.IODARegion(region)
		} else {
			d = e.OurRegion(region)
		}
		monthly := analysis.OutageHoursPerMonth(d, tl)
		if acc == nil {
			acc = make([]float64, len(monthly))
		}
		analysis.SumSeries(acc, monthly)
	}
	for i := range acc {
		acc[i] /= float64(len(regions))
	}
	return acc
}

func figure9(e *Env) *Report {
	r := newReport("F9", "Monthly outage hours by group")
	tl := e.Store().Timeline()
	fl := groupMonthlyHours(e, netmodel.FrontlineRegions(), false)
	nfl := groupMonthlyHours(e, netmodel.NonFrontlineRegions(), false)
	flI := groupMonthlyHours(e, netmodel.FrontlineRegions(), true)
	nflI := groupMonthlyHours(e, netmodel.NonFrontlineRegions(), true)
	r.addf("%-9s %10s %14s %12s %16s", "month", "frontline", "non-frontline", "IODA front", "IODA non-front")
	for m := range fl {
		r.addf("%-9s %10.0f %14.0f %12.0f %16.0f", tl.MonthLabel(m), fl[m], nfl[m], flI[m], nflI[m])
	}
	sum := func(v []float64) float64 {
		t := 0.0
		for _, x := range v {
			t += x
		}
		return t
	}
	r.metric("ours_frontline_total_hours", sum(fl))
	r.metric("ours_nonfrontline_total_hours", sum(nfl))
	r.metric("ioda_frontline_total_hours", sum(flI))
	r.metric("ioda_nonfrontline_total_hours", sum(nflI))
	// The paper: IODA reports more downtime hours overall.
	if s := sum(fl) + sum(nfl); s > 0 {
		r.metric("ioda_over_ours_hours_ratio", (sum(flI)+sum(nflI))/s)
	}
	// Winter concentration for our non-frontline signal: share of hours in
	// Nov-Mar months.
	winter, total := 0.0, 0.0
	for m, v := range nfl {
		total += v
		mo := tl.MonthStart(m).Month()
		if mo >= time.November || mo <= time.March {
			winter += v
		}
	}
	if total > 0 {
		r.metric("nonfrontline_winter_share", winter/total)
	}
	return r
}

// dailyGroupHours computes the mean daily Internet-outage hours across a
// region group for a calendar year.
func dailyGroupHours(e *Env, regions []netmodel.Region, ioda bool, year int) ([]float64, []float64, []time.Time) {
	tl := e.Store().Timeline()
	var group [][]float64
	for _, region := range regions {
		var d *signals.Detection
		if ioda {
			d = e.IODARegion(region)
		} else {
			d = e.OurRegion(region)
		}
		daily := analysis.OutageHoursPerDay(d, tl)
		group = append(group, daily)
	}
	mean := analysis.MeanOf(group...)
	maxs := analysis.MaxOf(group...)
	meanY, days := analysis.YearSlice(mean, tl, year)
	maxY, _ := analysis.YearSlice(maxs, tl, year)
	return meanY, maxY, days
}

// dailyPowerHours extracts the mean reported power-outage hours for the
// group and days.
func dailyPowerHours(e *Env, regions []netmodel.Region, days []time.Time) []float64 {
	rep := e.PowerReport()
	out := make([]float64, len(days))
	for i, day := range days {
		sum := 0.0
		for _, region := range regions {
			sum += rep.HoursOn(day, region)
		}
		out[i] = sum / float64(len(regions))
	}
	return out
}

func figure10(e *Env) *Report {
	r := newReport("F10", "Power vs Internet outages, 2024")
	nfl := netmodel.NonFrontlineRegions()
	netHours, netMax, days := dailyGroupHours(e, nfl, false, 2024)
	powHours := dailyPowerHours(e, nfl, days)
	rNFL := analysis.Pearson(powHours, netHours)

	flHours, _, flDays := dailyGroupHours(e, netmodel.FrontlineRegions(), false, 2024)
	flPow := dailyPowerHours(e, netmodel.FrontlineRegions(), flDays)
	rFL := analysis.Pearson(flPow, flHours)

	var netTotal, powTotal, worst float64
	for i := range netHours {
		netTotal += netHours[i]
		powTotal += powHours[i]
		worst += netMax[i]
	}
	for i := 0; i < len(days); i += 14 {
		r.addf("%s power=%5.1fh net=%5.1fh %s", days[i].Format("2006-01-02"), powHours[i], netHours[i], bar(netHours[i]/24, 24))
	}
	r.addf("2024 non-frontline: power %.0f h, internet %.0f h, worst-case %.0f h", powTotal, netTotal, worst)
	r.metricVs("pearson_nonfrontline", rNFL, 0.725)
	r.metricVs("pearson_frontline", rFL, 0.298)
	r.metricVs("power_hours_2024", powTotal, 1951)
	r.metricVs("internet_hours_2024", netTotal, 686)
	r.metricVs("worst_case_hours_2024", worst, 2822)
	return r
}

// eventWindow describes one of §5.2's validation windows.
type eventWindow struct {
	name     string
	from, to time.Time
}

func khersonWindows() []eventWindow {
	return []eventWindow{
		{"Mykolaiv cable (2022-04-30)", time.Date(2022, 4, 29, 0, 0, 0, 0, time.UTC), time.Date(2022, 5, 5, 0, 0, 0, 0, time.UTC)},
		{"Occupation rerouting (2022)", time.Date(2022, 5, 30, 0, 0, 0, 0, time.UTC), time.Date(2022, 11, 11, 0, 0, 0, 0, time.UTC)},
		{"Kakhovka dam (2023-06-06)", time.Date(2023, 6, 4, 0, 0, 0, 0, time.UTC), time.Date(2023, 6, 20, 0, 0, 0, 0, time.UTC)},
	}
}

func figure11(e *Env) *Report {
	r := newReport("F11", "Kherson event windows per AS")
	sc := e.Scenario()
	tl := e.Store().Timeline()
	windows := khersonWindows()
	affected := make([]int, len(windows))
	for _, asn := range sim.KhersonASNs() {
		if sc.Space.Lookup(asn) == nil {
			continue
		}
		d := e.OurAS(asn)
		line := fmt.Sprintf("%-18s", asn)
		for wi, w := range windows {
			lo, hi := tl.Round(w.from), tl.Round(w.to)
			var mask signals.Kind
			for _, o := range d.Outages {
				if o.Start < hi && o.End > lo {
					mask |= o.Signals
				}
			}
			if mask != 0 {
				affected[wi]++
			}
			line += fmt.Sprintf("  %-16s", mask)
		}
		r.addf("%s", line)
	}
	for wi, w := range windows {
		r.addf("%s: %d ASes with outage signals", w.name, affected[wi])
	}
	r.metricVs("cable_cut_ases", float64(affected[0]), 24)
	r.metricVs("rerouting_window_ases", float64(affected[1]), 21)
	r.metric("dam_window_ases", float64(affected[2]))
	return r
}

// asMonthlyRTT averages a Kherson AS's tracked-block RTT per month.
func asMonthlyRTT(e *Env, asn netmodel.ASN, month int) float64 {
	sc := e.Scenario()
	st := e.Store()
	as := sc.Space.Lookup(asn)
	if as == nil {
		return 0
	}
	lo, hi := st.Timeline().MonthRounds(month)
	sum, n := 0.0, 0
	for _, blk := range as.Blocks() {
		bi := st.BlockIndex(blk)
		if bi < 0 || !st.RTTTracked(bi) {
			continue
		}
		if sc.BlockTraitsAt(sc.Space.BlockIndex(blk)).HomeRegion != netmodel.Kherson {
			continue
		}
		for round := lo; round < hi; round++ {
			if st.Missing(round) || st.Resp(bi, round) == 0 {
				continue
			}
			if ms := st.RTT(bi, round); ms > 0 {
				sum += float64(ms)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func figure12(e *Env) *Report {
	r := newReport("F12", "Kherson AS monthly RTTs")
	tl := e.Store().Timeline()
	pre := tl.MonthIndex(time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC))
	occ := tl.MonthIndex(time.Date(2022, 8, 1, 0, 0, 0, 0, time.UTC))
	post := tl.MonthIndex(time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC))

	rerouted := []netmodel.ASN{49465, 56404, 56359, 25482, 15458, 47598, 56446, 25256}
	leftBank := map[netmodel.ASN]bool{49465: true, 56359: true, 25256: true}
	var occDelta, postDeltaLeft, postDeltaRight float64
	var nOcc, nLeft, nRight int
	r.addf("%-10s %10s %10s %10s", "ASN", "pre (ms)", "occup.", "post-lib")
	for _, asn := range rerouted {
		p, o, q := asMonthlyRTT(e, asn, pre), asMonthlyRTT(e, asn, occ), asMonthlyRTT(e, asn, post)
		r.addf("%-10s %10.0f %10.0f %10.0f", asn, p, o, q)
		if p > 0 && o > 0 {
			occDelta += o - p
			nOcc++
		}
		if p > 0 && q > 0 {
			if leftBank[asn] {
				postDeltaLeft += q - p
				nLeft++
			} else {
				postDeltaRight += q - p
				nRight++
			}
		}
	}
	if nOcc > 0 {
		r.metricVs("occupation_rtt_delta_ms", occDelta/float64(nOcc), 75)
	}
	if nLeft > 0 {
		r.metric("leftbank_post_delta_ms", postDeltaLeft/float64(nLeft))
	}
	if nRight > 0 {
		r.metric("rightbank_post_delta_ms", postDeltaRight/float64(nRight))
	}
	return r
}

func figure13(e *Env) *Report {
	r := newReport("F13", "Status seizure: signal ratios around 2022-05-13")
	es := e.Signals().AS(25482)
	tl := es.TL
	window := tl.RoundsPerWeek()
	from := tl.Round(time.Date(2022, 5, 12, 0, 0, 0, 0, time.UTC))
	to := tl.Round(time.Date(2022, 5, 14, 23, 0, 0, 0, time.UTC))
	minIPS := 10.0
	var bgpMin, fbsMin float64 = 10, 10
	for round := from; round <= to; round++ {
		ratio := func(col *signals.Column, v float32) float64 {
			ma, ok := signals.MovingAverage(col, es.Missing, round, window)
			if !ok || ma == 0 {
				return 1
			}
			return float64(v) / ma
		}
		bgp, fbs, ips := es.At(round)
		rb, rf, ri := ratio(&es.BGP, bgp), ratio(&es.FBS, fbs), ratio(&es.IPS, ips)
		r.addf("%s  BGP=%.2f FBS=%.2f IPS=%.2f", tl.Time(round).Format("01-02 15:04"), rb, rf, ri)
		if ri < minIPS {
			minIPS = ri
		}
		if rb < bgpMin {
			bgpMin = rb
		}
		if rf < fbsMin {
			fbsMin = rf
		}
	}
	r.addf("min ratios over window: BGP=%.2f FBS=%.2f IPS=%.2f", bgpMin, fbsMin, minIPS)
	r.metric("ips_min_ratio", minIPS)
	r.metric("bgp_min_ratio", bgpMin)
	r.metric("fbs_min_ratio", fbsMin)
	return r
}

func figure14(e *Env) *Report {
	r := newReport("F14", "Status blocks through the liberation")
	sc := e.Scenario()
	st := e.Store()
	tl := st.Timeline()
	status := sc.Space.Lookup(25482)
	lo := tl.Round(time.Date(2022, 11, 8, 0, 0, 0, 0, time.UTC))
	hi := tl.Round(time.Date(2022, 12, 14, 0, 0, 0, 0, time.UTC))

	var gapDays []float64
	kyivStayedUp := true
	diurnalRatio := 0.0
	for _, blk := range status.Blocks() {
		bi := st.BlockIndex(blk)
		region := sc.BlockTraitsAt(sc.Space.BlockIndex(blk)).HomeRegion
		// Longest run of fully silent days (every measured round zero) —
		// the outright outage; diurnal recovery days break the run because
		// daylight rounds respond.
		gap, run := 0, 0
		var day, night float64
		var dayN, nightN int
		for d := tl.DayOfRound(lo); d <= tl.DayOfRound(hi-1); d++ {
			silent, measured := true, false
			for round := lo; round < hi; round++ {
				if tl.DayOfRound(round) != d || st.Missing(round) {
					continue
				}
				measured = true
				resp := st.Resp(bi, round)
				if resp > 0 {
					silent = false
				}
				hour := (tl.Time(round).Hour() + 2) % 24
				if hour >= 9 && hour < 20 {
					day += float64(resp)
					dayN++
				} else if hour < 6 || hour >= 23 {
					night += float64(resp)
					nightN++
				}
			}
			if measured && silent {
				run++
				if run > gap {
					gap = run
				}
			} else if measured {
				run = 0
			}
		}
		if region == netmodel.Kherson {
			gapDays = append(gapDays, float64(gap))
			if dayN > 0 && nightN > 0 && night > 0 {
				diurnalRatio = (day / float64(dayN)) / (night / float64(nightN))
			} else if dayN > 0 && day > 0 {
				diurnalRatio = 99
			}
		} else if gap > 2 {
			kyivStayedUp = false
		}
		r.addf("block %v (%s): longest silent run %d days", blk, region, gap)
	}
	meanGap := 0.0
	for _, g := range gapDays {
		meanGap += g
	}
	if len(gapDays) > 0 {
		meanGap /= float64(len(gapDays))
	}
	r.addf("Kherson blocks mean gap %.1f days; Kyiv block up: %v; day/night ratio in recovery %.1f", meanGap, kyivStayedUp, diurnalRatio)
	r.metricVs("kherson_block_gap_days", meanGap, 10)
	b := 0.0
	if kyivStayedUp {
		b = 1
	}
	r.metricVs("kyiv_block_stayed_up", b, 1)
	r.metric("recovery_day_night_ratio", diurnalRatio)
	return r
}

func figure15(e *Env) *Report {
	r := newReport("F15", "AS outage coverage vs IODA")
	sc := e.Scenario()
	oursASes, oursOutages := 0, 0
	iodaASes, iodaOutages := 0, 0
	for _, asn := range e.TargetASNs() {
		if d := e.OurAS(asn); len(d.Outages) > 0 {
			oursASes++
			oursOutages += len(d.Outages)
		}
		if d := e.IODAAS(asn); d != nil && len(d.Outages) > 0 {
			iodaASes++
			iodaOutages += len(d.Outages)
		}
	}
	r.addf("This Work | FBS: %d outages across %d ASes (of %d targets)", oursOutages, oursASes, len(e.TargetASNs()))
	r.addf("IODA | Trinocular: %d outages across %d ASes", iodaOutages, iodaASes)
	small := 0
	for _, asn := range e.TargetASNs() {
		if as := sc.Space.Lookup(asn); as != nil && as.NumBlocks() < 20 {
			if len(e.OurAS(asn).Outages) > 0 {
				small++
			}
		}
	}
	r.addf("small ASes (<20 /24s) with outages only we cover: %d", small)
	r.metric("ases_with_outages_ours", float64(oursASes))
	r.metric("ases_with_outages_ioda", float64(iodaASes))
	if iodaASes > 0 {
		r.metricVs("coverage_ratio", float64(oursASes)/float64(iodaASes), 1674.0/333)
	}
	r.metric("outages_ours", float64(oursOutages))
	r.metric("outages_ioda", float64(iodaOutages))
	return r
}

// commonASes returns target ASes that IODA also reports.
func commonASes(e *Env) []netmodel.ASN {
	var out []netmodel.ASN
	for _, asn := range e.TargetASNs() {
		if e.IODAAS(asn) != nil {
			out = append(out, asn)
		}
	}
	return out
}

func figure16(e *Env) *Report {
	r := newReport("F16", "Outage starts per day, common ASes")
	tl := e.Store().Timeline()
	common := commonASes(e)
	ours := make([]float64, tl.NumDays())
	ioda := make([]float64, tl.NumDays())
	for _, asn := range common {
		analysis.SumSeries(ours, analysis.DailyStartCounts(e.OurAS(asn).Outages, tl))
		analysis.SumSeries(ioda, analysis.DailyStartCounts(e.IODAAS(asn).Outages, tl))
	}
	rr := analysis.Pearson(ours, ioda)
	r.addf("common ASes: %d; Pearson r of daily outage starts = %.2f", len(common), rr)
	r.metricVs("pearson_common_daily_starts", rr, 0.85)
	r.metric("common_ases", float64(len(common)))
	return r
}

func figure17(e *Env) *Report {
	r := newReport("F17", "Signal shares of outages (common ASes)")
	common := commonASes(e)
	oursBy := map[signals.Kind]int{}
	iodaBy := map[signals.Kind]int{}
	for _, asn := range common {
		for k, v := range e.OurAS(asn).CountBySignal() {
			oursBy[k] += v
		}
		for k, v := range e.IODAAS(asn).CountBySignal() {
			iodaBy[k] += v
		}
	}
	r.addf("%-12s %10s %10s", "signal", "this work", "IODA")
	r.addf("%-12s %10d %10d", "BGP★", oursBy[signals.SignalBGP], iodaBy[signals.SignalBGP])
	r.addf("%-12s %10d %10d", "FBS■/TRIN■", oursBy[signals.SignalFBS], iodaBy[signals.SignalFBS])
	r.addf("%-12s %10d %10s", "IPS▲", oursBy[signals.SignalIPS], "n/a")
	r.metric("ours_fbs_outages", float64(oursBy[signals.SignalFBS]))
	r.metric("ours_ips_outages", float64(oursBy[signals.SignalIPS]))
	r.metric("ioda_trin_outages", float64(iodaBy[signals.SignalFBS]))
	if oursBy[signals.SignalFBS] > 0 {
		// Paper: IPS 21,120 vs FBS 2,063 — IPS dominates because FBS
		// requires full-block unresponsiveness.
		r.metricVs("ips_over_fbs_ratio", float64(oursBy[signals.SignalIPS])/float64(oursBy[signals.SignalFBS]), 21120.0/2063)
	}
	return r
}

func figure24(e *Env) *Report {
	r := newReport("F24", "Severity threshold sweep, 2024 non-frontline")
	nfl := netmodel.NonFrontlineRegions()
	cl := e.Classifier()
	res := e.Classification()
	b := e.Signals()
	tl := e.Store().Timeline()

	// Build each region's series once (sharded across the worker pool), then
	// sweep the detection thresholds in parallel: each threshold only reads
	// the shared series. Report lines assemble in threshold order.
	series := par.Map(len(nfl), func(i int) *signals.EntitySeries {
		return b.Region(res.Regions[nfl[i]], cl)
	})
	thresholds := []float64{0.5, 0.7, 0.8, 0.9, 0.95, 0.99}
	type sweepPoint struct {
		total, r float64
	}
	points := par.Map(len(thresholds), func(ti int) sweepPoint {
		thr := thresholds[ti]
		cfg := signals.RegionConfig()
		cfg.BGPFrac, cfg.FBSFrac = thr, thr
		cfg.IPSFrac = thr - 0.05
		var group [][]float64
		for _, es := range series {
			d := signals.Detect(es, cfg)
			group = append(group, analysis.OutageHoursPerDay(d, tl))
		}
		mean := analysis.MeanOf(group...)
		meanY, days := analysis.YearSlice(mean, tl, 2024)
		pow := dailyPowerHours(e, nfl, days)
		total := 0.0
		for _, v := range meanY {
			total += v
		}
		return sweepPoint{total: total, r: analysis.Pearson(pow, meanY)}
	})
	var defaultR float64
	prevHours := -1.0
	monotone := true
	for ti, thr := range thresholds {
		pt := points[ti]
		r.addf("threshold %.2f: outage hours %.0f, Pearson r = %.2f", thr, pt.total, pt.r)
		if thr == 0.95 {
			defaultR = pt.r
		}
		if prevHours >= 0 && pt.total < prevHours-1 {
			monotone = false
		}
		prevHours = pt.total
	}
	r.metric("pearson_at_default", defaultR)
	mb := 0.0
	if monotone {
		mb = 1
	}
	r.metric("hours_monotone_in_threshold", mb)
	return r
}

func figure25(e *Env) *Report {
	r := newReport("F25", "IODA regional outages")
	tl := e.Store().Timeline()
	var bgpHours, trinHours float64
	var rows []render.LabeledDetection
	r.addf("%-16s %7s %7s %8s %10s", "oblast", "BGP★", "TRIN■", "events", "hours")
	for _, region := range netmodel.Regions() {
		d := e.IODARegion(region)
		by := d.CountBySignal()
		hours := float64(d.TotalRounds()) * tl.Interval().Hours()
		r.addf("%-16s %7d %7d %8d %10.0f", region, by[signals.SignalBGP], by[signals.SignalFBS], len(d.Outages), hours)
		bgpHours += float64(by[signals.SignalBGP])
		trinHours += float64(by[signals.SignalFBS])
		rows = append(rows, render.LabeledDetection{Label: region.String(), Detection: d, Missing: e.Store().MissingRounds()})
	}
	r.addf("%s", "")
	for _, line := range strings.Split(strings.TrimRight(render.Timeline(tl, rows, 96), "\n"), "\n") {
		r.addf("%s", line)
	}
	r.metric("bgp_events_total", bgpHours)
	r.metric("trin_events_total", trinHours)
	return r
}

func figure26(e *Env) *Report {
	r := newReport("F26", "IODA power correlation, 2024")
	nfl := netmodel.NonFrontlineRegions()
	netHours, _, days := dailyGroupHours(e, nfl, true, 2024)
	pow := dailyPowerHours(e, nfl, days)
	rNFL := analysis.Pearson(pow, netHours)
	flHours, _, flDays := dailyGroupHours(e, netmodel.FrontlineRegions(), true, 2024)
	flPow := dailyPowerHours(e, netmodel.FrontlineRegions(), flDays)
	rFL := analysis.Pearson(flPow, flHours)
	r.addf("IODA Pearson: non-frontline %.2f, frontline %.2f", rNFL, rFL)
	r.metricVs("ioda_pearson_nonfrontline", rNFL, 0.328)
	r.metricVs("ioda_pearson_frontline", rFL, 0.394)
	return r
}

func figure27(e *Env) *Report {
	r := newReport("F27", "Signal stability (FBS vs Trinocular)")
	tl := e.Store().Timeline()
	// The paper measures one calm day of bi-hourly samples (12 points). At
	// coarser experiment intervals a day yields too few samples for a
	// meaningful deviation, so use a calm week (same rounds-per-AS order
	// of magnitude) ending 2023-03-02.
	day := time.Date(2023, 3, 2, 0, 0, 0, 0, time.UTC)
	lo := tl.Round(day.Add(-6 * 24 * time.Hour))
	hi := tl.Round(day.Add(24 * time.Hour))
	if hi <= lo {
		hi = lo + 1
	}
	trin := e.Trinocular()
	b := e.Signals()

	var snrOurs, snrIODA []float64
	for asn, trinSeries := range trin.PerAS {
		ourSeries := b.AS(asn)
		var ours, theirs []float64
		zero := false
		for round := lo; round <= hi && round < tl.NumRounds(); round++ {
			if e.Store().Missing(round) {
				continue
			}
			_, fbs, _ := ourSeries.At(round)
			if fbs == 0 || trinSeries[round] == 0 {
				zero = true
			}
			ours = append(ours, float64(fbs))
			theirs = append(theirs, float64(trinSeries[round]))
		}
		if zero || len(ours) < 6 {
			continue // the paper excludes ASes with signal loss
		}
		snrOurs = append(snrOurs, capSNR(analysis.SNR(ours)))
		snrIODA = append(snrIODA, capSNR(analysis.SNR(theirs)))
	}
	// Median across ASes; perfectly constant signals saturate the SNR
	// (capped at 1000), so the median (not the mean) carries the
	// comparison.
	mo := analysis.NewCDF(snrOurs).Median()
	mi := analysis.NewCDF(snrIODA).Median()
	r.addf("ASes compared: %d; median SNR ours=%.1f, Trinocular=%.1f", len(snrOurs), mo, mi)
	r.metricVs("snr_ours", mo, 99.7)
	r.metricVs("snr_trinocular", mi, 7.6)
	if mi > 0 {
		r.metric("snr_ratio", mo/mi)
	}
	return r
}

func figure28(e *Env) *Report {
	r := newReport("F28", "Full Kherson timeline summary")
	sc := e.Scenario()
	tl := e.Store().Timeline()
	validSignals := 0
	total := 0
	var rows []render.LabeledDetection
	for _, asn := range sim.KhersonASNs() {
		as := sc.Space.Lookup(asn)
		if as == nil {
			continue
		}
		total++
		d := e.OurAS(asn)
		rows = append(rows, render.LabeledDetection{
			Label: fmt.Sprintf("%s (%s)", as.Name, asn), Detection: d,
			Missing: e.Store().MissingRounds(),
		})
		hours := float64(d.TotalRounds()) * tl.Interval().Hours()
		// "Valid outage signals were recorded for 30 out of 34 ASes."
		responsive := false
		for _, bi := range e.Signals().ASBlocks(asn) {
			for m := 0; m < tl.NumMonths(); m++ {
				if e.Store().MonthStats(bi, m).EverActive > 0 {
					responsive = true
					break
				}
			}
		}
		if responsive {
			validSignals++
		}
		r.addf("%-10s %-18s outage events=%3d hours=%7.0f responsive=%v", asn, as.Name, len(d.Outages), hours, responsive)
	}
	r.addf("ASes with valid signals: %d / %d", validSignals, total)
	r.addf("%s", "")
	for _, line := range strings.Split(strings.TrimRight(render.Timeline(tl, rows, 96), "\n"), "\n") {
		r.addf("%s", line)
	}
	r.metricVs("ases_with_valid_signals_frac", float64(validSignals)/float64(total), 30.0/34)
	return r
}

func capSNR(v float64) float64 {
	if v > 1000 {
		return 1000
	}
	return v
}

// headline1 quantifies the bi-hourly limitation: how many scripted
// ground-truth disruptions are too short to intersect a probing round.
func headline1(e *Env) *Report {
	r := newReport("H1", "Probing-interval miss rate")
	sc := e.Scenario()
	tl := e.Store().Timeline()
	interval := tl.Interval()
	short, covered, totalEvents := 0, 0, 0
	detected := 0
	for _, ev := range sc.Events() {
		if len(ev.ASNs) != 1 {
			continue
		}
		totalEvents++
		dur := ev.To.Sub(ev.From)
		if dur < interval {
			short++
		}
		lo, hi := tl.Round(ev.From), tl.Round(ev.To)
		hit := false
		for round := lo; round <= hi && round < tl.NumRounds(); round++ {
			at := tl.Time(round)
			if !at.Before(ev.From) && at.Before(ev.To) && !sc.Missing[round] {
				hit = true
				break
			}
		}
		if hit {
			covered++
			d := e.OurAS(ev.ASNs[0])
			for _, o := range d.Outages {
				if o.Start < hi+1 && o.End > lo {
					detected++
					break
				}
			}
		}
	}
	missRate := 0.0
	if totalEvents > 0 {
		missRate = 1 - float64(covered)/float64(totalEvents)
	}
	recall := 0.0
	if covered > 0 {
		recall = float64(detected) / float64(covered)
	}
	r.addf("scripted single-AS events: %d; shorter than the %v interval: %d", totalEvents, interval, short)
	r.addf("events intersecting a probing round: %d (miss rate %.1f%%)", covered, missRate*100)
	r.addf("of covered events, detected by our AS signals: %.0f%%", recall*100)
	r.metricVs("interval_miss_rate", missRate, 0.295)
	r.metric("covered_event_recall", recall)
	return r
}
