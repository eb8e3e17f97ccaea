// Package regional implements the paper's first core contribution (§4): the
// classification of ASes and /24 address blocks as regional, non-regional or
// temporal per oblast, based on long-term geolocation trends.
//
// An entity e (AS or /24 block) is regional for region R when its share of
// addresses located in R meets threshold M in at least T_perc of its routed
// months:
//
//	e ∈ E_reg  ⇔  Σ_t 1(s_t(e) ≥ M) ≥ ⌈T_perc · T_routed⌉
//
// with s_t(e) = n_t(e)/N_t(e), n_t the entity's addresses geolocated to R in
// month t and N_t its maximum (256 for blocks; the AS's home-country
// addresses for ASes — Ukrainian addresses in the paper). The paper selects
// M = T_perc = 0.7. The classifier is parameterized by the home country so
// the same machinery serves any country model.
package regional

import (
	"math"
	"sort"

	"countrymon/internal/dataset"
	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
)

// Params are the classification thresholds.
type Params struct {
	// M is the per-month share threshold.
	M float64
	// TPerc is the fraction of routed months that must meet M.
	TPerc float64
	// TemporalIPs: a non-regional AS whose presence in the region never
	// reaches this many addresses in any month (one /24 = 256) ...
	TemporalIPs int
	// TemporalShare: ... and whose share never exceeds this, is temporal —
	// geolocation noise rather than a measurement target.
	TemporalShare float64
}

// DefaultParams returns the paper's chosen thresholds.
func DefaultParams() Params {
	return Params{M: 0.7, TPerc: 0.7, TemporalIPs: 256, TemporalShare: 0.10}
}

// ASClass is an AS's classification for one region.
type ASClass uint8

const (
	// ASAbsent means the AS never had an address geolocated to the region.
	ASAbsent ASClass = iota
	// ASTemporal marks noise-level presence (§4.2).
	ASTemporal
	// ASNonRegional marks substantial but not dominant presence.
	ASNonRegional
	// ASRegional marks sustained dominant presence.
	ASRegional
)

func (c ASClass) String() string {
	switch c {
	case ASTemporal:
		return "temporal"
	case ASNonRegional:
		return "non-regional"
	case ASRegional:
		return "regional"
	}
	return "absent"
}

// Classifier precomputes per-block monthly geolocation shares so that
// classifications for all 26 regions and arbitrary parameter sweeps (Figs
// 22/23) are cheap.
type Classifier struct {
	space   *netmodel.Space
	store   *dataset.Store
	months  int
	country string

	// The per-block tables are blocks × months: block bi's month m is cell
	// bi*months + m.
	// shares is the block's address distribution in the month.
	shares []geodb.BlockShares
	// radius is the dominant geolocation entry's confidence radius.
	radius []uint16
	// blockRouted reports BGP coverage during the month.
	blockRouted []bool

	// asns lists the origin ASes in the order of their first block, asIndex
	// inverts it, and blockAS[bi] is block bi's AS's index.
	asns    []netmodel.ASN
	asIndex map[netmodel.ASN]int32
	blockAS []int32
	// The per-AS tables are ASes × months, laid out like the block tables.
	// homeIPs is the AS's home-country-located address count (the N_t(e)
	// denominator for AS shares).
	homeIPs []int32
	// asRouted reports whether any of the AS's blocks was routed.
	asRouted []bool
}

// NewClassifier builds the share tables from the monthly geolocation
// database and the measurement store (for routed months), with Ukraine as
// the home country (the paper's single-country pipeline).
func NewClassifier(space *netmodel.Space, db *geodb.DB, store *dataset.Store) *Classifier {
	return NewClassifierCountry(space, db, store, geodb.CountryUA)
}

// NewClassifierCountry is NewClassifier for an arbitrary home country: shares
// and AS denominators count only addresses the database locates in that
// country.
func NewClassifierCountry(space *netmodel.Space, db *geodb.DB, store *dataset.Store, country string) *Classifier {
	months, blocks := db.Months(), space.NumBlocks()
	c := &Classifier{
		space:       space,
		store:       store,
		months:      months,
		country:     country,
		shares:      make([]geodb.BlockShares, blocks*months),
		radius:      make([]uint16, blocks*months),
		blockRouted: make([]bool, blocks*months),
		asIndex:     make(map[netmodel.ASN]int32),
		blockAS:     make([]int32, blocks),
	}
	// Per-block rows are independent: shard them across the worker pool.
	// Each goroutine writes only its own rows, capped so none can reach past.
	par.ForEach(blocks, func(bi int) {
		blk := space.Blocks()[bi]
		lo, hi := bi*months, (bi+1)*months
		shares, radius, routed := c.shares[lo:hi:hi], c.radius[lo:hi:hi], c.blockRouted[lo:hi:hi]
		si := store.BlockIndex(blk)
		for m := 0; m < months; m++ {
			snap := db.Month(m)
			shares[m] = snap.BlockSharesFor(blk, c.country)
			if e, ok := snap.Lookup(blk.Addr(128)); ok {
				radius[m] = uint16(min32(e.RadiusKM, 65535))
			}
			if si >= 0 {
				st := store.MonthStats(si, m)
				routed[m] = st.RoutedRounds > 0
			}
		}
	})

	// Per-AS rows: each AS's monthly home-country addresses and routed
	// months, summed over its blocks.
	for bi, blk := range space.Blocks() {
		asn := space.OriginOf(blk)
		ai, ok := c.asIndex[asn]
		if !ok {
			ai = int32(len(c.asns))
			c.asIndex[asn] = ai
			c.asns = append(c.asns, asn)
		}
		c.blockAS[bi] = ai
	}
	c.homeIPs = make([]int32, len(c.asns)*months)
	c.asRouted = make([]bool, len(c.asns)*months)
	for bi := 0; bi < blocks; bi++ {
		a := int(c.blockAS[bi]) * months
		for m := 0; m < months; m++ {
			bs := &c.shares[bi*months+m]
			for r := netmodel.Region(1); int(r) <= netmodel.NumRegions; r++ {
				c.homeIPs[a+m] += int32(bs.PerRegion[r])
			}
			if c.blockRouted[bi*months+m] {
				c.asRouted[a+m] = true
			}
		}
	}
	return c
}

// homeRow returns the AS's homeIPs row, nil for an AS the space lacks.
func (c *Classifier) homeRow(asn netmodel.ASN) []int32 {
	ai, ok := c.asIndex[asn]
	if !ok {
		return nil
	}
	return c.homeIPs[int(ai)*c.months : (int(ai)+1)*c.months]
}

func min32(a uint32, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Months returns the number of classified months.
func (c *Classifier) Months() int { return c.months }

// BlockShare returns block bi's share of addresses in region r during month
// m (0..1).
func (c *Classifier) BlockShare(bi, m int, r netmodel.Region) float64 {
	return c.BlockShares(bi, m).Share(r)
}

// BlockShares returns the raw per-region counts for block bi in month m.
func (c *Classifier) BlockShares(bi, m int) *geodb.BlockShares { return &c.shares[bi*c.months+m] }

// BlockRadius returns the block's geolocation confidence radius in month m.
func (c *Classifier) BlockRadius(bi, m int) uint16 { return c.radius[bi*c.months+m] }

// ASShare returns the AS's share of its home-country addresses located in
// region r during month m.
func (c *Classifier) ASShare(asn netmodel.ASN, m int, r netmodel.Region) float64 {
	n := 0
	for bi, blk := range c.space.Blocks() {
		if c.space.OriginOf(blk) != asn {
			continue
		}
		n += int(c.BlockShares(bi, m).PerRegion[r])
	}
	total := c.homeRow(asn)
	if total == nil || total[m] == 0 {
		return 0
	}
	return float64(n) / float64(total[m])
}

// MeanHomeIPs returns the AS's mean monthly count of home-country-located
// addresses (Table 3's "IPS" column denominator).
func (c *Classifier) MeanHomeIPs(asn netmodel.ASN) float64 {
	home := c.homeRow(asn)
	if home == nil {
		return 0
	}
	sum := 0.0
	for _, v := range home {
		sum += float64(v)
	}
	return sum / float64(len(home))
}

// MeanRegionIPs returns the AS's mean monthly addresses located in the
// region.
func (c *Classifier) MeanRegionIPs(asn netmodel.ASN, region netmodel.Region) float64 {
	sum := 0.0
	for bi, blk := range c.space.Blocks() {
		if c.space.OriginOf(blk) != asn {
			continue
		}
		for m := 0; m < c.months; m++ {
			sum += float64(c.BlockShares(bi, m).PerRegion[region])
		}
	}
	return sum / float64(c.months)
}

// MeanHomeBlocks returns the AS's mean monthly count of /24s with at least
// one home-country-located address.
func (c *Classifier) MeanHomeBlocks(asn netmodel.ASN) float64 {
	sum := 0
	for bi, blk := range c.space.Blocks() {
		if c.space.OriginOf(blk) != asn {
			continue
		}
		for m := 0; m < c.months; m++ {
			bs := c.BlockShares(bi, m)
			for r := netmodel.Region(1); int(r) <= netmodel.NumRegions; r++ {
				if bs.PerRegion[r] > 0 {
					sum++
					break
				}
			}
		}
	}
	return float64(sum) / float64(c.months)
}

// MeanRegionBlocks returns the AS's mean monthly count of /24s with at
// least one address located in the region.
func (c *Classifier) MeanRegionBlocks(asn netmodel.ASN, region netmodel.Region) float64 {
	sum := 0
	for bi, blk := range c.space.Blocks() {
		if c.space.OriginOf(blk) != asn {
			continue
		}
		for m := 0; m < c.months; m++ {
			if c.BlockShares(bi, m).PerRegion[region] > 0 {
				sum++
			}
		}
	}
	return float64(sum) / float64(c.months)
}

// BlockClassification is one block's verdict for a region.
type BlockClassification struct {
	Index    int // dense block index in the Space
	Block    netmodel.BlockID
	Regional bool
	// EvalMonths marks the months in which the block meets the share
	// threshold; regional blocks are evaluated only in those months (§4.2).
	EvalMonths []bool
	// MeanShare is the average share across eval months (the weight the
	// regional signals apply).
	MeanShare float64
}

// RegionResult is the classification outcome for one region.
type RegionResult struct {
	Region netmodel.Region
	Params Params
	// AS maps every AS that ever had an address in the region to its class.
	AS map[netmodel.ASN]ASClass
	// Blocks holds the verdict for every block that ever located addresses
	// in the region.
	Blocks []BlockClassification
	// regionalIdx maps dense block index → position in Blocks for regional
	// blocks.
	regionalIdx map[int]int
}

// RegionalBlocks returns the classifications of regional blocks only.
func (r *RegionResult) RegionalBlocks() []BlockClassification {
	out := make([]BlockClassification, 0, len(r.regionalIdx))
	for _, bc := range r.Blocks {
		if bc.Regional {
			out = append(out, bc)
		}
	}
	return out
}

// RegionalBlock returns the classification of block index bi if regional.
func (r *RegionResult) RegionalBlock(bi int) (BlockClassification, bool) {
	if p, ok := r.regionalIdx[bi]; ok {
		return r.Blocks[p], true
	}
	return BlockClassification{}, false
}

// CountAS returns how many ASes hold the given class.
func (r *RegionResult) CountAS(class ASClass) int {
	n := 0
	for _, c := range r.AS {
		if c == class {
			n++
		}
	}
	return n
}

// Classify runs the region's classification.
func (c *Classifier) Classify(region netmodel.Region, p Params) *RegionResult {
	res := &RegionResult{
		Region:      region,
		Params:      p,
		AS:          make(map[netmodel.ASN]ASClass),
		regionalIdx: make(map[int]int),
	}
	months := c.months

	// Block-level classification, of the blocks present in the region in
	// some month. Their EvalMonths rows are carved from one table, capped so
	// an append to one cannot run into the next.
	present := 0
	for bi := range c.blockAS {
		if c.presentIn(bi, region) {
			present++
		}
	}
	var eval []bool
	if present > 0 {
		res.Blocks = make([]BlockClassification, 0, present)
		eval = make([]bool, present*months)
	}
	for bi, blk := range c.space.Blocks() {
		if !c.presentIn(bi, region) {
			continue
		}
		lo, hi := len(res.Blocks)*months, (len(res.Blocks)+1)*months
		evalMonths := eval[lo:hi:hi]
		routedMonths := 0
		meet := 0
		shareSum, shareN := 0.0, 0
		for m := 0; m < months; m++ {
			if !c.blockRouted[bi*months+m] {
				continue
			}
			routedMonths++
			if share := c.BlockShares(bi, m).Share(region); share >= p.M {
				meet++
				evalMonths[m] = true
				shareSum += share
				shareN++
			}
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

	// AS-level classification over the same months: each AS's addresses in
	// the region per month, summed over its blocks.
	inRegion := make([]int32, len(c.asns)*months)
	for bi, ai := range c.blockAS {
		row := inRegion[int(ai)*months:]
		for m := 0; m < months; m++ {
			row[m] += int32(c.BlockShares(bi, m).PerRegion[region])
		}
	}
	for ai, asn := range c.asns {
		row := inRegion[ai*months : (ai+1)*months]
		routed := c.asRouted[ai*months : (ai+1)*months]
		home := c.homeIPs[ai*months : (ai+1)*months]
		present := false
		var maxIPs int32
		var maxShare float64
		meet, total := 0, 0
		for m, n := range row {
			if n == 0 {
				continue
			}
			present = true
			if n > maxIPs {
				maxIPs = n
			}
			var share float64
			if home[m] > 0 {
				share = float64(n) / float64(home[m])
			}
			if share > maxShare {
				maxShare = share
			}
			if !routed[m] {
				continue
			}
			total++
			if share >= p.M {
				meet++
			}
		}
		if !present {
			continue
		}
		need := int(math.Ceil(p.TPerc * float64(total)))
		switch {
		case total > 0 && need > 0 && meet >= need:
			res.AS[asn] = ASRegional
		case int(maxIPs) < p.TemporalIPs && maxShare < p.TemporalShare:
			res.AS[asn] = ASTemporal
		default:
			res.AS[asn] = ASNonRegional
		}
	}
	return res
}

// presentIn reports whether block bi has an address in the region in any
// month.
func (c *Classifier) presentIn(bi int, region netmodel.Region) bool {
	for i := bi * c.months; i < (bi+1)*c.months; i++ {
		if c.shares[i].PerRegion[region] > 0 {
			return true
		}
	}
	return false
}

// Result aggregates classifications across all 26 regions.
type Result struct {
	Params  Params
	Regions map[netmodel.Region]*RegionResult
}

// ClassifyAll classifies every region. Regions are independent reads of the
// precomputed share tables, so they shard across the worker pool.
func (c *Classifier) ClassifyAll(p Params) *Result {
	regions := netmodel.Regions()
	results := par.Map(len(regions), func(i int) *RegionResult {
		return c.Classify(regions[i], p)
	})
	res := &Result{Params: p, Regions: make(map[netmodel.Region]*RegionResult, len(regions))}
	for i, r := range regions {
		res.Regions[r] = results[i]
	}
	return res
}

// NationalClass is an AS's country-level classification (Table 3): regional
// if regional in ≥1 oblast; else non-regional if it has substantial presence
// anywhere; else temporal.
func (r *Result) NationalClass(asn netmodel.ASN) ASClass {
	best := ASAbsent
	for _, rr := range r.Regions {
		if c, ok := rr.AS[asn]; ok && c > best {
			best = c
		}
	}
	return best
}

// NationalCounts tallies Table 3's first column block: ASes per national
// class.
func (r *Result) NationalCounts() map[ASClass]int {
	seen := make(map[netmodel.ASN]ASClass)
	for _, rr := range r.Regions {
		for asn, c := range rr.AS {
			if c > seen[asn] {
				seen[asn] = c
			}
		}
	}
	out := make(map[ASClass]int)
	for _, c := range seen {
		out[c]++
	}
	return out
}

// TargetSet is Table 3's final row: ASes (regional or non-regional) owning
// at least one regional block, with the regional blocks and their address
// mass.
type TargetSet struct {
	ASes   map[netmodel.ASN]bool
	Blocks map[int]netmodel.Region // dense block index → region it is regional for
	IPs    float64                 // mean monthly addresses in regional blocks
}

// TargetSet computes the measurement target set across all regions.
func (r *Result) TargetSet(c *Classifier) *TargetSet {
	ts := &TargetSet{ASes: make(map[netmodel.ASN]bool), Blocks: make(map[int]netmodel.Region)}
	var ipSum float64
	for region, rr := range r.Regions {
		for _, bc := range rr.Blocks {
			if !bc.Regional {
				continue
			}
			if _, taken := ts.Blocks[bc.Index]; !taken {
				ts.Blocks[bc.Index] = region
				ts.ASes[c.space.OriginOf(bc.Block)] = true
				// Mean monthly address mass in the region.
				sum, n := 0.0, 0
				for m := 0; m < c.months; m++ {
					sum += float64(c.BlockShares(bc.Index, m).PerRegion[region])
					n++
				}
				if n > 0 {
					ipSum += sum / float64(n)
				}
			}
		}
	}
	ts.IPs = ipSum
	return ts
}

// MultiLocalDominantShares returns, for blocks pointing at more than one
// region in a month, the dominant region's share (Fig 21's CDF input).
func (c *Classifier) MultiLocalDominantShares() []float64 {
	var out []float64
	for bi := range c.blockAS {
		for m := 0; m < c.months; m++ {
			bs := c.BlockShares(bi, m)
			regions := 0
			for r := netmodel.Region(1); int(r) <= netmodel.NumRegions; r++ {
				if bs.PerRegion[r] > 0 {
					regions++
				}
			}
			if regions < 2 {
				continue
			}
			_, n := bs.DominantRegion()
			if bs.Located > 0 {
				out = append(out, float64(n)/float64(bs.Located))
			}
		}
	}
	sort.Float64s(out)
	return out
}
