// Package ioda approximates the IODA platform the paper compares against
// (§5.4, Appendix G): outage detection from the Trinocular active-block
// signal (TRIN■) and BGP visibility, without the regional classification the
// paper introduces. Its two deliberate differences from internal/signals
// reproduce the paper's findings:
//
//   - ASes are mapped to every oblast where any of their addresses ever
//     geolocated, so a national provider's BGP outage bleeds into many
//     regions at once (Fig 25 vs Fig 8);
//   - only ASes with at least 20 /24 blocks are reported, hiding the small
//     regional providers that dominate Ukraine's provider landscape
//     (Fig 15: 333 vs 1,674 covered ASes).
package ioda

import (
	"math/bits"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/regional"
	"countrymon/internal/signals"
	"countrymon/internal/trinocular"
)

// MinASBlocks is IODA's AS reporting floor (feedback quoted in §5.4: no
// outages are reported for ASes with fewer than 20 /24s).
const MinASBlocks = 20

// Config returns the platform's detection thresholds: 80% of the recent
// baseline is a (warning-level) outage; there is no IPS signal and no
// availability sensing.
func Config() signals.Config {
	return signals.Config{
		BGPFrac: 0.95, FBSFrac: 0.85,
		FBSRequiresIPSBelow: 0, AvailabilitySensing: false,
		MinBaseline: 0.5,
	}
}

// Platform is a configured IODA-like observer.
type Platform struct {
	store *dataset.Store
	space *netmodel.Space
	trin  *trinocular.Result

	// presence maps each AS to the regions where it ever had an address.
	presence map[netmodel.ASN][]netmodel.Region
	// blocksOf counts /24s per AS (reporting floor).
	blocksOf map[netmodel.ASN]int
	// measured masks a block's routed words to the store's measured rounds
	// (see measuredMask).
	measured []uint64
}

// New builds the platform. The regional classification result is used only
// to learn *presence* (any class, including temporal) — the platform itself
// performs no regionality filtering, faithfully to the original. The store's
// missing rounds are read here, once: the store must not change afterwards.
func New(store *dataset.Store, space *netmodel.Space, trin *trinocular.Result, res *regional.Result) *Platform {
	p := &Platform{
		store:    store,
		space:    space,
		trin:     trin,
		presence: make(map[netmodel.ASN][]netmodel.Region),
		blocksOf: make(map[netmodel.ASN]int),
		measured: measuredMask(store.MissingRounds()),
	}
	for _, as := range space.ASes() {
		p.blocksOf[as.ASN] = as.NumBlocks()
	}
	for _, region := range netmodel.Regions() {
		rr := res.Regions[region]
		for asn, class := range rr.AS {
			if class == regional.ASAbsent {
				continue
			}
			p.presence[asn] = append(p.presence[asn], region)
		}
	}
	return p
}

// Reported reports whether the platform publishes outages for the AS.
func (p *Platform) Reported(asn netmodel.ASN) bool {
	return p.blocksOf[asn] >= MinASBlocks && p.trin.PerAS[asn] != nil
}

// ReportedASes returns all ASes above the reporting floor with Trinocular
// coverage.
func (p *Platform) ReportedASes() []netmodel.ASN {
	var out []netmodel.ASN
	for asn := range p.trin.PerAS {
		if p.blocksOf[asn] >= MinASBlocks {
			out = append(out, asn)
		}
	}
	return out
}

// HasCoverage reports whether Trinocular tracks any block of the AS (for
// Fig 27's "includes data" comparison, distinct from Reported).
func (p *Platform) HasCoverage(asn netmodel.ASN) bool { return p.trin.PerAS[asn] != nil }

// ASSeries builds the platform's view of one AS: BGP routed /24s and the
// TRIN■ active-block signal; no IPS signal exists.
func (p *Platform) ASSeries(asn netmodel.ASN) *signals.EntitySeries {
	tl := p.store.Timeline()
	es := signals.NewSeries("IODA/"+asn.String(), tl, p.store.MissingRounds()) // IPS never valid
	if trin := p.trin.PerAS[asn]; trin != nil {
		for m := range tl.NumMonths() {
			lo, _ := tl.MonthRounds(m)
			copy(es.FBS.Month(m), trin[lo:])
		}
	}
	var blocks []int
	for bi, blk := range p.store.Blocks() {
		if p.space.OriginOf(blk) == asn {
			blocks = append(blocks, bi)
		}
	}
	countRouted(&es.BGP, p.store, blocks, p.measured)
	return es
}

// measuredMask returns a routed bitset's mask of the measured rounds: bit
// r%64 of word r/64 is set for every round r not missing, and no bit past
// the last round is.
func measuredMask(missing []bool) []uint64 {
	mask := make([]uint64, (len(missing)+63)/64)
	for r, m := range missing {
		if !m {
			mask[r/64] |= 1 << (r % 64)
		}
	}
	return mask
}

// countRouted adds one to bgp's round r for every round r set in both a
// block's routed bits and mask, for each of blocks, a segment's word at a
// time (mask's words are the store's segments), split where a month of bgp
// begins inside the segment. A block routed in every measured round of such
// a piece is counted, not walked: the piece's rounds gain the count once.
// The sums are exact whatever the order: they are integers below 2²⁴.
func countRouted(bgp *signals.Column, st *dataset.Store, blocks []int, mask []uint64) {
	tl := st.Timeline()
	for k, mk := range mask {
		_, routed := st.Segment(k)
		if routed == nil {
			continue
		}
		lo := k * dataset.SegmentRounds
		end := min(lo+dataset.SegmentRounds, tl.NumRounds())
		for a, z := lo, 0; a < end; a = z {
			m := tl.MonthOfRound(a)
			mlo, mhi := tl.MonthRounds(m)
			z = min(mhi, end)
			seg := bgp.Month(m)[a-mlo:]
			piece := mk >> (a - lo) & (1<<(z-a) - 1) // a shift by 64 is 0
			if piece == 0 {
				continue
			}
			full := 0
			for _, bi := range blocks {
				x := routed[bi] >> (a - lo) & piece
				if x == piece {
					full++
					continue
				}
				for ; x != 0; x &= x - 1 {
					seg[bits.TrailingZeros64(x)]++
				}
			}
			for x := piece; full > 0 && x != 0; x &= x - 1 {
				seg[bits.TrailingZeros64(x)] += float32(full)
			}
		}
	}
}

// DetectAS runs the platform's outage detection for one AS. It returns nil
// when the AS is below the reporting floor.
func (p *Platform) DetectAS(asn netmodel.ASN) *signals.Detection {
	if !p.Reported(asn) {
		return nil
	}
	return signals.Detect(p.ASSeries(asn), Config())
}

// RegionSeries aggregates the *entire* signal of every AS with any presence
// in the region — the regional attribution the paper shows inflates IODA's
// per-oblast outages (App. G).
func (p *Platform) RegionSeries(region netmodel.Region) *signals.EntitySeries {
	tl := p.store.Timeline()
	es := signals.NewSeries("IODA/"+region.String(), tl, p.store.MissingRounds())
	member := make(map[netmodel.ASN]bool)
	for asn, regions := range p.presence {
		for _, r := range regions {
			if r == region {
				member[asn] = true
			}
		}
	}
	for asn := range member {
		if trin := p.trin.PerAS[asn]; trin != nil {
			for m := range tl.NumMonths() {
				lo, _ := tl.MonthRounds(m)
				fbs := es.FBS.Month(m)
				for j, v := range trin[lo:][:len(fbs)] {
					fbs[j] += v
				}
			}
		}
	}
	var blocks []int
	for bi, blk := range p.store.Blocks() {
		if member[p.space.OriginOf(blk)] {
			blocks = append(blocks, bi)
		}
	}
	countRouted(&es.BGP, p.store, blocks, p.measured)
	return es
}

// DetectRegion runs regional outage detection. Unlike our signals, the
// platform alerts against a *fixed historical baseline* (the first month's
// level) rather than a sliding weekly average: this is what produces the
// long-lasting BGP-signal outages Fig 25 shows at oblast level — regions
// whose aggregate slowly declines through churn and withdrawals never
// "reset" the baseline, so they stay in alert for months, inflating IODA's
// reported downtime hours (§5.1: up to 450 h/month ≈ 63% downtime).
func (p *Platform) DetectRegion(region netmodel.Region) *signals.Detection {
	return detectRegionSeries(p.RegionSeries(region))
}

// detectRegionSeries is the fixed-baseline detector over an already-built
// regional series — shared between DetectRegion and the API server's
// timeline-store entities, which feed it a sealed store view.
func detectRegionSeries(es *signals.EntitySeries) *signals.Detection {
	rounds := len(es.Missing) // the span; a value past the columns reads zero
	d := &signals.Detection{Flags: make([]signals.Kind, rounds)}

	// Fixed baseline: mean of the first month's measured rounds — of those
	// sealed so far when the view is shorter than the month.
	lo, hi := es.TL.MonthRounds(0)
	hi = min(hi, rounds)
	bgpCol, fbsCol := es.BGP.Month(0), es.FBS.Month(0)
	var bgpBase, fbsBase float64
	n := 0
	for r := lo; r < hi; r++ {
		if es.Missing[r] {
			continue
		}
		bgpBase += float64(cellAt(bgpCol, r-lo))
		fbsBase += float64(cellAt(fbsCol, r-lo))
		n++
	}
	if n == 0 {
		return d
	}
	bgpBase /= float64(n)
	fbsBase /= float64(n)

	cfg := Config()
	for a, z := 0, 0; a < rounds; a = z {
		m := es.TL.MonthOfRound(a)
		lo, hi := es.TL.MonthRounds(m)
		z = min(hi, rounds)
		bgpCol, fbsCol := es.BGP.Month(m), es.FBS.Month(m)
		for r := a; r < z; r++ {
			if es.Missing[r] {
				continue
			}
			var flags signals.Kind
			bgp, fbs := cellAt(bgpCol, r-lo), cellAt(fbsCol, r-lo)
			if bgpBase >= 2 && float64(bgp) < cfg.BGPFrac*bgpBase {
				flags |= signals.SignalBGP
			}
			if fbsBase >= 2 && float64(fbs) < cfg.FBSFrac*fbsBase {
				flags |= signals.SignalFBS
			}
			d.Flags[r] = flags
		}
	}

	// Merge flagged runs into events (missing rounds bridge runs).
	inOutage := false
	var cur signals.Outage
	for r := 0; r < rounds; r++ {
		if es.Missing[r] {
			continue
		}
		if d.Flags[r] != 0 {
			if !inOutage {
				cur = signals.Outage{Start: r}
				inOutage = true
			}
			cur.Signals |= d.Flags[r]
			cur.End = r + 1
		} else if inOutage {
			d.Outages = append(d.Outages, cur)
			inOutage = false
		}
	}
	if inOutage {
		d.Outages = append(d.Outages, cur)
	}
	return d
}

// cellAt is seg[j], or zero past the month's cells held: a series' value
// past its columns reads zero.
func cellAt(seg []float32, j int) float32 {
	if j < len(seg) {
		return seg[j]
	}
	return 0
}
