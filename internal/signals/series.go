// Package signals implements the paper's second core contribution (§3.1,
// §5): the three Internet-availability signals —
//
//	BGP★  routed /24 address blocks,
//	FBS■  active /24 blocks among those meeting the full-block-scan
//	      eligibility E(b) ≥ 3 ever-active addresses per month,
//	IPS▲  responsive IP addresses (gated on months averaging > 10),
//
// computed per AS and per region, plus outage detection against a seven-day
// moving average with the static thresholds of Table 2, the "ongoing" flag
// for total BGP loss, and ISP availability sensing (Baltra & Heidemann) to
// filter dynamic-reallocation false positives out of the FBS signal.
//
// One Builder serves both uses, through one build walk; only what it keeps
// differs. A batch Builder (NewBuilder, NewBuilderMinCoverage) reads its
// store as complete and keeps no reference to a series it returns: each AS
// or Region call builds a fresh series the caller owns, so an analysis that
// keeps only detections drops the columns with them. A streaming Builder
// (NewStreamingBuilder) reads a running campaign's store: it memoizes every
// series it builds and Fold keeps them warm, folding each new round in as it
// lands at O(blocks touched this round) instead of rebuilding the campaign.
package signals

import (
	"sync"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/regional"
	"countrymon/internal/timeline"
)

// MinEverActive is the FBS block-eligibility threshold (E(b) ≥ 3).
const MinEverActive = 3

// MinIPSMonthly gates the IPS signal: it is only evaluated in months whose
// mean responsive-IP count exceeds this (§3.1).
const MinIPSMonthly = 10.0

// DefaultMinCoverage is the probed-target fraction below which a salvaged
// partial round is treated like a vantage outage. A round that only probed a
// sliver of its targets would otherwise read as a fabricated IPS/FBS
// collapse.
const DefaultMinCoverage = 0.8

// EntitySeries holds one entity's (AS or region) per-round signal values.
//
// The series spans len(Missing) rounds. The three value columns hold them a
// month at a time (Column) and may stop short of that span: a value past a
// column's end reads zero (At), as a cell of a dataset segment never written
// does. A Builder's series holds its values through the end of the month of
// the later of its last folded round and its store's last written segment,
// and Fold gives it a month's segments as the month's first round lands.
type EntitySeries struct {
	Name string
	TL   *timeline.Timeline
	// BGP, FBS and IPS are per-round values (see package doc).
	BGP Column
	FBS Column
	IPS Column
	// IPSValidMonth marks months where the IPS signal is evaluated.
	IPSValidMonth []bool
	// Missing marks rounds without usable data: vantage outages plus
	// partial rounds below the builder's coverage gate.
	Missing []bool
}

// At returns round r's three values, zero past the end of the columns.
func (es *EntitySeries) At(r int) (bgp, fbs, ips float32) {
	return es.BGP.At(r), es.FBS.At(r), es.IPS.At(r)
}

// View returns the series' first rounds rounds: a new EntitySeries sharing
// es's segments, as a live series is read up to its round cursor.
func (es *EntitySeries) View(rounds int) *EntitySeries {
	v := *es
	v.BGP, v.FBS, v.IPS = es.BGP.View(rounds), es.FBS.View(rounds), es.IPS.View(rounds)
	v.Missing = es.Missing[:rounds:rounds]
	return &v
}

// Builder derives entity series from the measurement store.
type Builder struct {
	store *dataset.Store
	space *netmodel.Space
	tl    *timeline.Timeline
	// months caches tl.NumMonths(): the stride of the flattened per-block ×
	// per-month arrays below.
	months int
	// everMax[bi*months+m] is the partial E(b) aggregate: the maximum
	// per-round responsive count of block bi seen in month m so far (over
	// non-missing rounds). The streaming mode maintains it as rounds fold in.
	everMax []uint8
	// elig[bi*months+m] is FBS eligibility of block bi in month m — exactly
	// everMax ≥ MinEverActive, kept materialized because it sits on the
	// series-accumulation hot path.
	elig []bool
	// asBlocks maps each AS to its dense block indices in the store.
	asBlocks map[netmodel.ASN][]int
	// missing is the effective no-data mask: vantage outages plus partial
	// rounds below the coverage gate. Every derived series aliases it, so a
	// streaming fold updates all of them at once.
	missing []bool
	// minCoverage is the partial-round gate the mask was computed with.
	minCoverage float64
	// handled bounds the rounds the IPS gate averages over, [0, handled).
	// A batch builder reads its store as complete: the whole timeline. A
	// streaming builder reads it as a live campaign's: through the store's
	// resume cursor, then through each round Fold folds, since a live
	// month's rounds nobody has scanned yet are not measured zeros.
	handled int
	// streaming marks a NewStreamingBuilder: only it memoizes and registers
	// the series it builds, since Fold advances what it registered.
	streaming bool
	// asCache and regionCache memoize a streaming builder's series (a batch
	// builder leaves them empty). Callers treat a memoized series as shared
	// and read-only; anything derived from it (detection, the serve layer)
	// allocates its own buffers.
	asCache     par.Cache[netmodel.ASN, *EntitySeries]
	regionCache par.Cache[*regional.RegionResult, *EntitySeries]
	// metrics records series-build timings (see Observe); never nil.
	metrics *Metrics

	// Fold state (see stream.go). foldMu guards the entity registry: series
	// builds may run concurrently with each other (par.Cache), but Fold must
	// not run concurrently with series queries — the campaign goroutine
	// serializes them.
	nextFold int
	foldMu   sync.Mutex
	entities []*foldEntity
}

// NewBuilder precomputes FBS eligibility for every block and month, gating
// partial rounds at DefaultMinCoverage. The walk behind it, like every series
// build, visits only the store's written segments (dataset.Store.Segment): it
// costs O(blocks × recorded rounds), not O(blocks × timeline), on a
// partially filled store.
func NewBuilder(store *dataset.Store, space *netmodel.Space) *Builder {
	return NewBuilderMinCoverage(store, space, DefaultMinCoverage)
}

// NewBuilderMinCoverage is NewBuilder with an explicit coverage gate:
// rounds that probed less than minCoverage of their targets count as
// missing for every derived series.
func NewBuilderMinCoverage(store *dataset.Store, space *netmodel.Space, minCoverage float64) *Builder {
	tl := store.Timeline()
	months := tl.NumMonths()
	b := &Builder{
		store:       store,
		space:       space,
		tl:          tl,
		months:      months,
		everMax:     make([]uint8, store.NumBlocks()*months),
		elig:        make([]bool, store.NumBlocks()*months),
		asBlocks:    make(map[netmodel.ASN][]int),
		missing:     store.EffectiveMissing(minCoverage),
		minCoverage: minCoverage,
		metrics:     &Metrics{},
		nextFold:    store.NextUndone(),
		handled:     tl.NumRounds(),
	}
	// The ever-active aggregates are independent per block: one pass over
	// the block's written segments per worker-pool shard (the cells of an
	// unwritten one are zero and raise no maximum). MonthStats skips only
	// true vantage outages (not coverage-gated partial rounds), so the
	// aggregation here must too.
	outage := store.MissingRounds()
	par.ForEach(store.NumBlocks(), func(bi int) {
		base := bi * months
		for k := range store.NumSegments() {
			resp, _ := store.Segment(k)
			if resp == nil {
				continue
			}
			lo := k * dataset.SegmentRounds
			for j, c := range resp[bi*dataset.SegmentRounds:][:store.SegmentLen(k)] {
				if outage[lo+j] {
					continue
				}
				if i := base + tl.MonthOfRound(lo+j); c > b.everMax[i] {
					b.everMax[i] = c
				}
			}
		}
		for m := 0; m < months; m++ {
			b.elig[base+m] = b.everMax[base+m] >= MinEverActive
		}
	})
	// Group blocks per AS sequentially so each AS's block list stays in
	// ascending index order: series accumulation order (and thus float
	// rounding) must not depend on the worker count.
	for bi := 0; bi < store.NumBlocks(); bi++ {
		blk := store.Blocks()[bi]
		if asn := space.OriginOf(blk); asn != 0 {
			b.asBlocks[asn] = append(b.asBlocks[asn], bi)
		}
	}
	return b
}

// Eligible reports FBS eligibility of block bi in month m.
func (b *Builder) Eligible(bi, m int) bool { return b.elig[bi*b.months+m] }

// ASBlocks returns the dense block indices of an AS.
func (b *Builder) ASBlocks(asn netmodel.ASN) []int { return b.asBlocks[asn] }

// AS builds the AS-wide series over all the AS's blocks (as §5.4 does for
// comparability with IODA). It is safe to call from concurrent goroutines.
// A batch builder returns a fresh series on every call and keeps none of it;
// a streaming builder memoizes per AS and returns the series Fold advances,
// shared — treat it as read-only.
func (b *Builder) AS(asn netmodel.ASN) *EntitySeries {
	if !b.streaming {
		return b.buildAS(asn)
	}
	return b.asCache.Get(asn, func() *EntitySeries { return b.buildAS(asn) })
}

func (b *Builder) buildAS(asn netmodel.ASN) *EntitySeries {
	defer b.metrics.BuildSeconds.ObserveSince(time.Now())
	es := b.newSeries(asn.String())
	// The walk visits only the written segments — the zero cells of the
	// others would only add zero — and, within one, the blocks in ascending
	// order, so each round sums its blocks in the order a full-timeline walk
	// does and the sums match it bit for bit. The series holds every written
	// segment (newSeries).
	blocks := b.asBlocks[asn]
	for k := range b.store.NumSegments() {
		resp, routed := b.store.Segment(k)
		if resp == nil {
			continue
		}
		lo := k * dataset.SegmentRounds
		end := lo + b.store.SegmentLen(k)
		// A segment may span months: each month's piece of it goes to that
		// month's cells.
		for a, z := lo, 0; a < end; a = z {
			m := b.tl.MonthOfRound(a)
			mlo, mhi, bgp, fbs, ips := es.monthCells(m)
			z = min(mhi, end)
			missing := es.Missing[a:z]
			bgp, fbs, ips = bgp[a-mlo:z-mlo], fbs[a-mlo:z-mlo], ips[a-mlo:z-mlo]
			for _, bi := range blocks {
				word, elig := routed[bi]>>(a-lo), b.elig[bi*b.months+m]
				for j, v := range resp[bi*dataset.SegmentRounds+a-lo:][:z-a] {
					if missing[j] {
						continue
					}
					c := float32(v)
					ips[j] += c
					if word>>j&1 == 1 {
						bgp[j]++
					}
					if elig && c > 0 {
						fbs[j]++
					}
				}
			}
		}
	}
	b.fillIPSValidity(es)
	if b.streaming {
		b.registerFold(&foldEntity{es: es, blocks: b.asBlocks[asn]})
	}
	return es
}

// Region builds the regional series: only blocks classified regional for
// the region contribute, only in the months they meet the share threshold,
// weighted by their regional share of addresses (§3.1 "Signal Properties").
// It is safe to call from concurrent goroutines. A batch builder returns a
// fresh series on every call and keeps none of it; a streaming builder
// memoizes per classification result (keyed by the *RegionResult pointer) and
// returns the series Fold advances, shared — treat it as read-only. The
// series is always accumulated in ascending block order by a single
// goroutine, so float rounding is identical regardless of the worker count.
func (b *Builder) Region(rr *regional.RegionResult, cl *regional.Classifier) *EntitySeries {
	if !b.streaming {
		return b.buildRegion(rr, cl)
	}
	return b.regionCache.Get(rr, func() *EntitySeries { return b.buildRegion(rr, cl) })
}

func (b *Builder) buildRegion(rr *regional.RegionResult, cl *regional.Classifier) *EntitySeries {
	defer b.metrics.BuildSeconds.ObserveSince(time.Now())
	es := b.newSeries(rr.Region.String())
	fe := &foldEntity{es: es}
	for _, bc := range rr.Blocks {
		if bc.Regional {
			fe.blocks = append(fe.blocks, bc.Index)
			fe.eval = append(fe.eval, bc.EvalMonths)
		}
	}
	// Segment by segment and month by month, blocks ascending within each,
	// as buildAS walks.
	for k := range b.store.NumSegments() {
		resp, routed := b.store.Segment(k)
		if resp == nil {
			continue
		}
		lo := k * dataset.SegmentRounds
		end := lo + b.store.SegmentLen(k)
		for a, z := lo, 0; a < end; a = z {
			m := b.tl.MonthOfRound(a)
			mlo, mhi, bgp, fbs, ips := es.monthCells(m)
			z = min(mhi, end)
			missing := es.Missing[a:z]
			bgp, fbs, ips = bgp[a-mlo:z-mlo], fbs[a-mlo:z-mlo], ips[a-mlo:z-mlo]
			for i, bi := range fe.blocks {
				if !fe.eval[i][m] {
					continue
				}
				word, elig := routed[bi]>>(a-lo), b.elig[bi*b.months+m]
				share := float32(cl.BlockShare(bi, m, rr.Region))
				for j, v := range resp[bi*dataset.SegmentRounds+a-lo:][:z-a] {
					if missing[j] {
						continue
					}
					c := float32(v) * share
					ips[j] += c
					if word>>j&1 == 1 {
						bgp[j]++
					}
					if elig && v > 0 {
						fbs[j]++
					}
				}
			}
		}
	}
	b.fillIPSValidity(es)
	if !b.streaming {
		return es
	}
	region := rr.Region
	fe.share = func(bi, m int) float32 { return float32(cl.BlockShare(bi, m, region)) }
	b.registerFold(fe)
	return es
}

// NewSeries returns an all-zero series over tl with no month's IPS valid.
// Missing aliases the given per-round mask, it is not copied. The columns
// hold every month, in one buffer.
func NewSeries(name string, tl *timeline.Timeline, missing []bool) *EntitySeries {
	return newHeldSeries(name, tl, missing, tl.NumMonths()-1)
}

// newHeldSeries is NewSeries with columns holding months [0, through].
func newHeldSeries(name string, tl *timeline.Timeline, missing []bool, through int) *EntitySeries {
	es := &EntitySeries{
		Name:          name,
		TL:            tl,
		IPSValidMonth: make([]bool, tl.NumMonths()),
		Missing:       missing,
	}
	GrowColumns(tl, through, &es.BGP, &es.FBS, &es.IPS)
	return es
}

// newSeries is the builder's series, holding its values through the end of
// the month of the later of the last folded round and the store's last
// written segment: every round a build or a fold has written.
func (b *Builder) newSeries(name string) *EntitySeries {
	last := b.nextFold - 1
	for k := b.store.NumSegments() - 1; k >= 0; k-- {
		if resp, _ := b.store.Segment(k); resp != nil {
			last = max(last, k*dataset.SegmentRounds+b.store.SegmentLen(k)-1)
			break
		}
	}
	return newHeldSeries(name, b.tl, b.missing, b.tl.MonthOfRound(max(last, 0)))
}

func (b *Builder) fillIPSValidity(es *EntitySeries) {
	for m := 0; m < b.tl.NumMonths(); m++ {
		b.fillIPSValidityMonth(es, m)
	}
}

// fillIPSValidityMonth recomputes the IPS validity of a single month — the
// unit of invalidation the streaming fold pays per round. The mean is over
// the month's handled rounds only (Builder.handled), always accumulated in
// ascending round order so batch and streaming builds agree bit for bit. A
// series holds a month whole or not at all, and a month it does not hold
// reads zero: its mean never passes the gate.
func (b *Builder) fillIPSValidityMonth(es *EntitySeries, m int) {
	lo, hi := b.tl.MonthRounds(m)
	ips := es.IPS.Month(m)
	if len(ips) < hi-lo {
		es.IPSValidMonth[m] = false
		return
	}
	sum, n := 0.0, 0
	for j, missing := range es.Missing[lo:max(lo, min(hi, b.handled))] {
		if missing {
			continue
		}
		sum += float64(ips[j])
		n++
	}
	es.IPSValidMonth[m] = n > 0 && sum/float64(n) > MinIPSMonthly
}
