package experiments

import (
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/regional"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
)

func init() {
	register("T1", "Method comparison: full block scans vs Trinocular vs single-IP", table1)
	register("T2", "Static detection thresholds and their behaviour", table2)
	register("T3", "Regional / non-regional / temporal classification counts", table3)
	register("T4", "Block eligibility: FBS vs Trinocular", table4)
	register("T5", "Kherson AS inventory", table5)
}

// table1 reproduces Table 1's quantitative columns on the shared scenario:
// probing cost, eligibility and outage coverage per method.
func table1(e *Env) *Report {
	r := newReport("T1", "Method comparison")
	st := e.Store()
	tl := st.Timeline()
	months := tl.NumMonths()

	// FBS: 256 probes per block per round; eligibility E(b) ≥ 3.
	fbsEligible := 0
	responsive := 0
	for bi := 0; bi < st.NumBlocks(); bi++ {
		everResp, everElig := false, false
		for m := 0; m < months; m++ {
			s := st.MonthStats(bi, m)
			if s.EverActive > 0 {
				everResp = true
			}
			if s.EverActive >= signals.MinEverActive {
				everElig = true
			}
		}
		if everResp {
			responsive++
		}
		if everElig {
			fbsEligible++
		}
	}

	// Trinocular: adaptive probing cost measured from the baseline run.
	trin := e.Trinocular()
	runner := e.TrinocularRunner()
	rounds := 0
	for _, m := range st.MissingRounds() {
		if !m {
			rounds++
		}
	}
	trinProbesPerBlockRound := float64(trin.ProbesSent) / float64(rounds*max(1, runner.NumBlocks()))

	// Outage coverage: ASes with ≥1 detected outage, ours vs IODA.
	ours, theirs := 0, 0
	for _, asn := range e.TargetASNs() {
		if len(e.OurAS(asn).Outages) > 0 {
			ours++
		}
		if d := e.IODAAS(asn); d != nil && len(d.Outages) > 0 {
			theirs++
		}
	}

	mean := avgResponsiveIPs(e)
	r.addf("%-22s %10s %12s %14s %12s", "method", "probes//24", "interval", "eligible /24s", "AS coverage")
	r.addf("%-22s %10d %12s %14d %12d", "This Work (FBS)", 256, tl.Interval(), fbsEligible, ours)
	r.addf("%-22s %10.2f %12s %14d %12d", "Trinocular/IODA", trinProbesPerBlockRound, tl.Interval(), runner.NumBlocks(), theirs)
	r.addf("%-22s %10d %12s %14s %12s", "single-IP", 1, tl.Interval(), "n/a", "n/a")
	r.addf("responsive /24 blocks: %d of %d; mean responsive IPs per round: %.0f", responsive, st.NumBlocks(), mean)

	r.metric("fbs_eligible_blocks", float64(fbsEligible))
	r.metric("trinocular_eligible_blocks", float64(runner.NumBlocks()))
	r.metric("trin_probes_per_block_round", trinProbesPerBlockRound)
	r.metric("as_coverage_ours", float64(ours))
	r.metric("as_coverage_ioda", float64(theirs))
	return r
}

func avgResponsiveIPs(e *Env) float64 {
	st := e.Store()
	sum, n := 0.0, 0
	for round := 0; round < st.Timeline().NumRounds(); round += 29 {
		if st.Missing(round) {
			continue
		}
		total := 0
		for bi := 0; bi < st.NumBlocks(); bi++ {
			total += st.Resp(bi, round)
		}
		sum += float64(total)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// table2 prints the Table 2 thresholds and validates their behaviour on a
// controlled series: no false positives on a steady baseline, prompt
// detection of a step outage.
func table2(e *Env) *Report {
	r := newReport("T2", "Detection thresholds")
	asCfg, regCfg := signals.ASConfig(), signals.RegionConfig()
	r.addf("%-10s %6s %6s %6s %18s", "level", "BGP★", "FBS■", "IPS▲", "FBS gating (IPS <)")
	r.addf("%-10s %5.0f%% %5.0f%% %5.0f%% %17.0f%%", "AS", asCfg.BGPFrac*100, asCfg.FBSFrac*100, asCfg.IPSFrac*100, asCfg.FBSRequiresIPSBelow*100)
	r.addf("%-10s %5.0f%% %5.0f%% %5.0f%% %17.0f%%", "Regional", regCfg.BGPFrac*100, regCfg.FBSFrac*100, regCfg.IPSFrac*100, regCfg.FBSRequiresIPSBelow*100)

	// Controlled validation.
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(1000*2*time.Hour), 2*time.Hour)
	mk := func() *signals.EntitySeries {
		es := signals.NewSeries("ctl", tl, make([]bool, tl.NumRounds()))
		for i := range tl.NumRounds() {
			es.BGP.Set(i, 20)
			es.FBS.Set(i, 18)
			es.IPS.Set(i, 900)
		}
		for m := range es.IPSValidMonth {
			es.IPSValidMonth[m] = true
		}
		return es
	}
	steady := signals.Detect(mk(), asCfg)
	es := mk()
	const stepAt = 600
	for i := stepAt; i < es.BGP.Len(); i++ {
		es.BGP.Set(i, 0)
		es.FBS.Set(i, 0)
		es.IPS.Set(i, 0)
	}
	stepped := signals.Detect(es, asCfg)
	latency := -1
	for rr := stepAt; rr < len(stepped.Flags); rr++ {
		if stepped.Flags[rr] != 0 {
			latency = rr - stepAt
			break
		}
	}
	r.addf("steady baseline false-positive rounds: %d / %d", steady.TotalRounds(), tl.NumRounds())
	r.addf("step outage detection latency: %d rounds", latency)
	r.metric("false_positive_rounds", float64(steady.TotalRounds()))
	r.metric("step_detection_latency_rounds", float64(latency))
	return r
}

// table3 reproduces Table 3: classification counts for Ukraine and Kherson,
// plus the target-set row.
func table3(e *Env) *Report {
	r := newReport("T3", "Regional classification (Table 3)")
	cl := e.Classifier()
	res := e.Classification()

	classOf := func(asn netmodel.ASN) regional.ASClass { return res.NationalClass(asn) }
	national := map[regional.ASClass]*classAgg{}
	total := &classAgg{}
	for _, as := range e.Scenario().Space.ASes() {
		c := classOf(as.ASN)
		if c == regional.ASAbsent {
			continue
		}
		a := national[c]
		if a == nil {
			a = &classAgg{}
			national[c] = a
		}
		ips := cl.MeanHomeIPs(as.ASN)
		blocks := cl.MeanHomeBlocks(as.ASN)
		a.ases++
		a.ips += ips
		a.blocks += blocks
		total.ases++
		total.ips += ips
		total.blocks += blocks
	}

	kherson := map[regional.ASClass]*classAgg{}
	khTotal := &classAgg{}
	khRes := res.Regions[netmodel.Kherson]
	for asn, c := range khRes.AS {
		a := kherson[c]
		if a == nil {
			a = &classAgg{}
			kherson[c] = a
		}
		ips := cl.MeanRegionIPs(asn, netmodel.Kherson)
		blocks := cl.MeanRegionBlocks(asn, netmodel.Kherson)
		a.ases++
		a.ips += ips
		a.blocks += blocks
		khTotal.ases++
		khTotal.ips += ips
		khTotal.blocks += blocks
	}

	ts := e.TargetSet()
	r.addf("%-14s | %8s %10s %8s | %8s %10s %8s", "category", "UA ASes", "UA IPs", "UA /24s", "KH ASes", "KH IPs", "KH /24s")
	row := func(name string, n, k *classAgg) {
		if n == nil {
			n = &classAgg{}
		}
		if k == nil {
			k = &classAgg{}
		}
		r.addf("%-14s | %8d %10.0f %8.0f | %8d %10.0f %8.0f", name, n.ases, n.ips, n.blocks, k.ases, k.ips, k.blocks)
	}
	row("Total", total, khTotal)
	row("Regional", national[regional.ASRegional], kherson[regional.ASRegional])
	row("Non-Regional", national[regional.ASNonRegional], kherson[regional.ASNonRegional])
	row("Temporal", national[regional.ASTemporal], kherson[regional.ASTemporal])
	r.addf("Target set: %d ASes, %d regional /24s, %.0f IPs", len(ts.ASes), len(ts.Blocks), ts.IPs)

	scale := e.Config().Scale
	r.metricVs("total_ases", float64(total.ases), 2024*scale)
	r.metricVs("regional_ases", float64(nz(national[regional.ASRegional]).ases), 1428*scale)
	r.metricVs("kherson_regional_ases", float64(nz(kherson[regional.ASRegional]).ases), 13)
	r.metric("kherson_total_ases", float64(khTotal.ases))
	r.metric("kherson_temporal_ases", float64(nz(kherson[regional.ASTemporal]).ases))
	r.metric("target_ases", float64(len(ts.ASes)))
	r.metric("target_blocks", float64(len(ts.Blocks)))
	return r
}

// classAgg accumulates Table 3 cells.
type classAgg struct {
	ases   int
	ips    float64
	blocks float64
}

func nz(a *classAgg) *classAgg {
	if a == nil {
		return &classAgg{}
	}
	return a
}

// table4 reproduces Table 4: eligible blocks, FBS vs Trinocular, for
// regional vs non-regional blocks.
func table4(e *Env) *Report {
	r := newReport("T4", "Block eligibility: FBS vs Trinocular (Table 4)")
	st := e.Store()
	months := st.Timeline().NumMonths()
	ts := e.TargetSet()

	type counts struct{ all, responsive, fbs, trin, indet int }
	var reg, non counts
	for bi := 0; bi < st.NumBlocks(); bi++ {
		_, isRegional := ts.Blocks[bi]
		c := &non
		if isRegional {
			c = &reg
		}
		c.all++
		everResp, everFBS, everTrin, everInd := false, false, false, false
		for m := 0; m < months; m++ {
			s := st.MonthStats(bi, m)
			if s.EverActive > 0 {
				everResp = true
			}
			if s.EverActive >= signals.MinEverActive {
				everFBS = true
			}
			el, ind := st.EligibleTrinocular(bi, m)
			if el {
				everTrin = true
				if ind {
					everInd = true
				}
			}
		}
		if everResp {
			c.responsive++
		}
		if everFBS {
			c.fbs++
		}
		if everTrin {
			c.trin++
		}
		if everInd {
			c.indet++
		}
	}
	r.addf("%-26s %10s %14s", "category", "regional", "non-regional")
	r.addf("%-26s %10d %14d", "All blocks", reg.all, non.all)
	r.addf("%-26s %10d %14d", "Responsive", reg.responsive, non.responsive)
	r.addf("%-26s %10d %14d", "-> Full Block Scans E≥3", reg.fbs, non.fbs)
	r.addf("%-26s %10d %14d", "-> Trinocular E≥15,A≥0.1", reg.trin, non.trin)
	r.addf("%-26s %10d %14d", "   thereof indeterminate", reg.indet, non.indet)

	fbsShare, trinShare := 0.0, 0.0
	if reg.responsive > 0 {
		fbsShare = float64(reg.fbs) / float64(reg.responsive)
		trinShare = float64(reg.trin) / float64(reg.responsive)
	}
	r.metricVs("regional_fbs_share_of_responsive", fbsShare, 0.96)
	r.metricVs("regional_trin_share_of_responsive", trinShare, 0.84)
	r.metric("regional_indeterminate", float64(reg.indet))
	return r
}

// table5 reproduces Table 5: the Kherson AS inventory with classification,
// headquarters, IODA coverage and 2025 BGP presence, checked against the
// scripted ground truth.
func table5(e *Env) *Report {
	r := newReport("T5", "Kherson AS inventory (Table 5)")
	sc := e.Scenario()
	st := e.Store()
	res := e.Classification().Regions[netmodel.Kherson]
	platform := e.IODA()
	lastMonth := st.Timeline().NumMonths() - 1

	groundTruthRegional := make(map[netmodel.ASN]bool)
	for _, asn := range sim.KhersonRegionalASNs() {
		groundTruthRegional[asn] = true
	}

	correct, ceasedDetected, ceasedTruth := 0, 0, 0
	r.addf("%-10s %-18s %-16s %9s %6s %6s %8s", "ASN", "name", "HQ", "reg /24s", "class", "IODA", "BGP2025")
	for _, asn := range sim.KhersonASNs() {
		as := sc.Space.Lookup(asn)
		if as == nil {
			continue
		}
		regionalBlocks := 0
		for _, blk := range as.Blocks() {
			if _, ok := res.RegionalBlock(sc.Space.BlockIndex(blk)); ok {
				regionalBlocks++
			}
		}
		class := res.AS[asn]
		if (class == regional.ASRegional) == groundTruthRegional[asn] {
			correct++
		}
		// BGP presence in the final month.
		routed := false
		for _, blk := range as.Blocks() {
			if st.MonthStats(sc.Space.BlockIndex(blk), lastMonth).RoutedRounds > 0 {
				routed = true
				break
			}
		}
		tr := sc.ASTraitsOf(asn)
		truthCeased := tr != nil && !tr.Active(sc.TL.End())
		if truthCeased {
			ceasedTruth++
			if !routed {
				ceasedDetected++
			}
		}
		hq := "foreign"
		if as.HQ.Valid() {
			hq = as.HQ.String()
		}
		iodaCov := "no"
		if platform.Reported(asn) {
			iodaCov = "yes"
		}
		bgp := "yes"
		if !routed {
			bgp = "no"
		}
		r.addf("%-10s %-18s %-16s %9d %6.6s %6s %8s", asn, as.Name, hq, regionalBlocks, class.String(), iodaCov, bgp)
	}
	r.metricVs("classification_accuracy", float64(correct)/float64(len(sim.KhersonASNs())), 1.0)
	r.metricVs("ceased_ases_detected", float64(ceasedDetected), 7)
	r.metric("ceased_ases_ground_truth", float64(ceasedTruth))
	return r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
