package sim

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/power"
	"countrymon/internal/timeline"
)

// regionParam drives generation for one region.
type regionParam struct {
	Weight     float64 // share of the national block pool
	RegionalAS int     // regional AS count at full scale (Fig 3 shape)
	ChurnPct   float64 // target IPv4 count change 2022-02 → 2025-02 (Fig 1)
}

// regionParams encodes the paper's per-oblast structure: weights give the
// Fig 6/7 distribution of blocks, RegionalAS the Fig 3 distribution, and
// ChurnPct the Fig 1 changes (frontline losses up to −67%, Chernihiv +24%).
var regionParams = map[netmodel.Region]regionParam{
	netmodel.Cherkasy:       {0.024, 45, -27},
	netmodel.Chernihiv:      {0.020, 40, +24},
	netmodel.Chernivtsi:     {0.015, 30, -8},
	netmodel.Crimea:         {0.018, 25, -20},
	netmodel.Dnipropetrovsk: {0.080, 120, -8},
	netmodel.Donetsk:        {0.050, 80, -56},
	netmodel.IvanoFrankivsk: {0.025, 45, -12},
	netmodel.Kharkiv:        {0.070, 110, -27},
	netmodel.Kherson:        {0.013, 13, -62},
	netmodel.Khmelnytskyi:   {0.022, 40, -12},
	netmodel.Kirovohrad:     {0.018, 30, -10},
	netmodel.Kyiv:           {0.250, 230, +13},
	netmodel.Luhansk:        {0.020, 35, -67},
	netmodel.Lviv:           {0.060, 100, -5},
	netmodel.Mykolaiv:       {0.025, 40, -15},
	netmodel.Odessa:         {0.070, 100, -11},
	netmodel.Poltava:        {0.030, 50, -7},
	netmodel.Rivne:          {0.020, 35, -24},
	netmodel.Sevastopol:     {0.008, 12, -15},
	netmodel.Sumy:           {0.022, 40, -21},
	netmodel.Ternopil:       {0.016, 30, -10},
	netmodel.Transcarpathia: {0.018, 32, -9},
	netmodel.Vinnytsia:      {0.026, 45, -12},
	netmodel.Volyn:          {0.020, 35, -37},
	netmodel.Zaporizhzhia:   {0.035, 55, -52},
	netmodel.Zhytomyr:       {0.024, 40, -30},
}

// weightedRegion picks a region proportional to its block weight.
func weightedRegion(h uint64) netmodel.Region {
	u := netmodel.UnitFloat(h)
	acc := 0.0
	for _, r := range netmodel.Regions() {
		acc += regionParams[r].Weight
		if u < acc {
			return r
		}
	}
	return netmodel.Kyiv
}

// nationalISP describes a country-wide provider.
type nationalISP struct {
	ASN     netmodel.ASN
	Name    string
	Blocks  int // at full scale
	Foreign bool
}

var nationalISPs = []nationalISP{
	{15895, "Kyivstar", 3600, false},
	{6849, "Ukrtelecom", 3400, false},
	{21497, "Vodafone", 2400, false},
	{25229, "Volia", 1500, false},
	{6877, "Ukrtelecom", 1200, false},
	{21219, "Datagroup", 500, false},
	{13188, "Triolan", 450, false},
	{12883, "Vega", 400, false},
	{39608, "Lanet", 350, false},
	{6703, "Alkar-As", 300, false},
	{6698, "Virtualsystems", 200, false},
	{6846, "Infocom", 120, false},
	{30823, "Aurologic", 40, true},
	{12687, "Uran Kiev", 30, false},
}

// addressPools are the UA-delegated ranges blocks are carved from.
var addressPools = []netmodel.Prefix{
	netmodel.MustParsePrefix("5.56.0.0/13"),
	netmodel.MustParsePrefix("31.128.0.0/11"),
	netmodel.MustParsePrefix("37.52.0.0/14"),
	netmodel.MustParsePrefix("46.96.0.0/12"),
	netmodel.MustParsePrefix("77.88.0.0/13"),
	netmodel.MustParsePrefix("91.192.0.0/12"),
	netmodel.MustParsePrefix("93.72.0.0/13"),
	netmodel.MustParsePrefix("109.86.0.0/15"),
	netmodel.MustParsePrefix("176.8.0.0/13"),
	netmodel.MustParsePrefix("178.92.0.0/14"),
	netmodel.MustParsePrefix("188.16.0.0/12"),
	netmodel.MustParsePrefix("193.16.0.0/12"),
	netmodel.MustParsePrefix("194.0.0.0/13"),
	netmodel.MustParsePrefix("195.24.0.0/13"),
	netmodel.MustParsePrefix("212.40.0.0/13"),
	netmodel.MustParsePrefix("213.108.0.0/14"),
}

// leasedPool is foreign-delegated space used inside Ukraine (the AlfaTelecom
// leasing limitation, §4.3).
var leasedPool = netmodel.MustParsePrefix("185.66.0.0/16")

type builder struct {
	cfg    Config
	tl     *timeline.Timeline
	seed   uint64
	pool   int
	cursor netmodel.BlockID
	ases   []*netmodel.AS
	traits map[netmodel.ASN]*ASTraits
	bt     map[netmodel.BlockID]*BlockTraits
	events []Event

	khersonBlocksOf map[netmodel.ASN][]netmodel.BlockID
	statusBlocks    []netmodel.BlockID
	leased          []*netmodel.AS
	leasedCursor    netmodel.BlockID
}

// Ukraine returns the bundled Ukraine country model: the paper's scripted
// war generator, expressed as Spec data. The generator emits plain Spec
// values — regions, ASes, blocks and events — and building the model is
// nothing but Assemble over them, so Ukraine is one instance of the
// data-driven country model rather than a special-cased construction path.
func Ukraine(cfg Config) (Spec, error) {
	cfg = cfg.withDefaults()
	b := &builder{
		cfg:             cfg,
		tl:              timeline.New(cfg.Start, cfg.End, cfg.Interval),
		seed:            cfg.Seed,
		cursor:          addressPools[0].Base.Block(),
		traits:          make(map[netmodel.ASN]*ASTraits),
		bt:              make(map[netmodel.BlockID]*BlockTraits),
		khersonBlocksOf: make(map[netmodel.ASN][]netmodel.BlockID),
		leasedCursor:    leasedPool.Base.Block(),
	}
	b.buildKhersonTable5()
	b.buildNationalISPs()
	b.buildRegionalASes()
	b.buildMultiRegionASes()
	b.buildLeasedASes()
	b.applyChurn()
	b.events = append(b.events, khersonEvents(b.statusBlocks, b.khersonBlocksOf)...)
	b.generateFrontlineNoise()

	spec := Spec{
		Cfg:         cfg,
		Country:     "UA",
		CountryName: "Ukraine",
		Events:      b.events,
		Power:       power.Generate(power.Config{Start: cfg.Start, End: cfg.End, Seed: cfg.Seed ^ 0x9041}),
		Missing:     timeline.MissingRounds(b.tl, timeline.DefaultVantageOutages()),
		Leased:      b.leased,
	}
	for _, as := range b.ases {
		spec.ASes = append(spec.ASes, *b.traits[as.ASN])
	}
	for _, as := range b.ases {
		for _, blk := range as.Blocks() {
			t, ok := b.bt[blk]
			if !ok {
				return Spec{}, fmt.Errorf("sim: block %v has no traits", blk)
			}
			spec.Blocks = append(spec.Blocks, *t)
		}
	}
	return spec, nil
}

// Build constructs the bundled Ukraine scenario deterministically from the
// config: the Ukraine model assembled like any other country model.
func Build(cfg Config) (*Scenario, error) {
	spec, err := Ukraine(cfg)
	if err != nil {
		return nil, err
	}
	return Assemble(spec)
}

// MustBuild is Build that panics on error (scenario scripts are static).
func MustBuild(cfg Config) *Scenario {
	s, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (b *builder) h(vals ...uint64) uint64 {
	x := b.seed
	for _, v := range vals {
		x = netmodel.Hash2(x, v)
	}
	return x
}

// alloc carves n contiguous /24 blocks from the UA pools.
func (b *builder) alloc(n int) []netmodel.Prefix {
	var out []netmodel.Prefix
	for n > 0 {
		pool := addressPools[b.pool]
		poolEnd := pool.Base.Block() + netmodel.BlockID(pool.NumBlocks())
		if b.cursor >= poolEnd {
			b.pool++
			if b.pool >= len(addressPools) {
				panic("sim: address pools exhausted")
			}
			b.cursor = addressPools[b.pool].Base.Block()
			continue
		}
		// Largest aligned power-of-two run that fits both n and the pool.
		run := 1
		for run*2 <= n && b.cursor%netmodel.BlockID(run*2) == 0 &&
			b.cursor+netmodel.BlockID(run*2) <= poolEnd {
			run *= 2
		}
		bits := uint8(24)
		for r := run; r > 1; r /= 2 {
			bits--
		}
		out = append(out, netmodel.MustNewPrefix(b.cursor.First(), bits))
		b.cursor += netmodel.BlockID(run)
		n -= run
	}
	return out
}

func (b *builder) scaleCount(full int) int {
	n := int(float64(full)*b.cfg.Scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// addAS registers an AS with n blocks and returns the block IDs.
func (b *builder) addAS(as *netmodel.AS, n int, tr ASTraits) []netmodel.BlockID {
	as.Prefixes = b.alloc(n)
	b.ases = append(b.ases, as)
	tr.AS = as
	b.traits[as.ASN] = &tr
	blocks := as.Blocks()
	for _, blk := range blocks {
		b.bt[blk] = &BlockTraits{Block: blk, ASN: as.ASN, MoveMonth: -1}
	}
	return blocks
}

// blockDefaults fills responsiveness traits for a block given its context.
func (b *builder) blockDefaults(t *BlockTraits, region netmodel.Region, regionalAS bool) {
	t.HomeRegion = region
	h := b.h(0x8811, uint64(t.Block))
	u := netmodel.UnitFloat(h)

	frontline := region.Frontline()
	switch {
	case region == netmodel.Kherson:
		t.Density = uint8(12 + h>>8%34) // 12..45
		t.RespRate = float32(0.30 + 0.25*u)
		t.DeclineTo = float32(0.25 + 0.20*netmodel.UnitFloat(h>>16))
	case frontline:
		t.Density = uint8(10 + h>>8%50) // 10..59
		t.RespRate = float32(0.35 + 0.30*u)
		t.DeclineTo = float32(0.30 + 0.35*netmodel.UnitFloat(h>>16))
	default:
		if u < 0.38 && !regionalAS {
			// Sparse block: effectively unused address space.
			t.Density = uint8(h >> 8 % 3) // 0..2
			t.RespRate = 0.5
			t.DeclineTo = 1
			return
		}
		t.Density = uint8(20 + h>>8%160) // 20..179
		t.RespRate = float32(0.50 + 0.35*netmodel.UnitFloat(h>>24))
		t.DeclineTo = float32(0.75 + 0.30*netmodel.UnitFloat(h>>16))
	}
	t.Diurnal = h>>32%100 < 15
	// Frontline providers are war-hardened (generators, PON, §6); the
	// share of grid-sensitive edges is higher in quieter oblasts.
	if frontline {
		t.GridSensitive = h>>40%100 < 18
	} else {
		t.GridSensitive = h>>40%100 < 30
	}
	if t.GridSensitive {
		t.BackupHours = float32(1.5 + 4.5*netmodel.UnitFloat(h>>48)) // 1.5..6h
	} else {
		t.BackupHours = float32(3 + 6*netmodel.UnitFloat(h>>48)) // 3..9h
	}
	t.Static = regionalAS && h>>56%100 < 75
	// Persistent IP drift to a neighbouring region for ~10% of blocks.
	if h>>4%100 < 10 {
		t.DriftFrac = float32(0.1 + 0.3*netmodel.UnitFloat(h>>12))
		t.DriftRegion = weightedRegion(b.h(0xd1, uint64(t.Block)))
		if t.DriftRegion == region {
			t.DriftRegion = netmodel.Kyiv
		}
		if region == netmodel.Kyiv && t.DriftRegion == netmodel.Kyiv {
			t.DriftRegion = netmodel.Vinnytsia
		}
	}
}

func ceaseDate(h uint64) time.Time {
	// Spread cease dates over 2022-10 .. 2024-09.
	months := int(h % 24)
	return time.Date(2022, time.Month(10+months), 1, 0, 0, 0, 0, time.UTC)
}

func (b *builder) buildKhersonTable5() {
	for _, k := range khersonTable5() {
		if k.National {
			continue // carved out of the national pool later
		}
		hq := k.HQ
		foreign := k.Foreign
		tr := ASTraits{ActiveFrom: k.ActiveFrom}
		if k.CeasedBy2025 {
			tr.ActiveTo = ceaseDate(b.h(0xcea5e, uint64(k.ASN)))
		}
		as := &netmodel.AS{ASN: k.ASN, Name: k.Name, HQ: hq, Foreign: foreign}
		blocks := b.addAS(as, k.RegionalBlocks+k.ExtraBlocks, tr)

		for i, blk := range blocks {
			t := b.bt[blk]
			if i < k.RegionalBlocks {
				b.blockDefaults(t, netmodel.Kherson, k.Regional)
				t.Static = true // regional Kherson blocks geolocate precisely
				b.khersonBlocksOf[k.ASN] = append(b.khersonBlocksOf[k.ASN], blk)
			} else {
				// Extra blocks live in neighbouring oblasts (or Kyiv for
				// Status's fourth block), keeping the AS non-regional.
				dest := netmodel.Mykolaiv
				switch b.h(0xe7a, uint64(blk)) % 3 {
				case 0:
					dest = netmodel.Kyiv
				case 1:
					dest = netmodel.Dnipropetrovsk
				}
				if k.ASN == 25482 {
					dest = netmodel.Kyiv // Status's documented Kyiv block
				}
				b.blockDefaults(t, dest, false)
				t.Static = true
			}
		}
		if k.ASN == 25482 {
			b.statusBlocks = blocks // 3 Kherson + 1 Kyiv, allocation order
		}
	}
}

func (b *builder) buildNationalISPs() {
	// Kherson-regional carve-outs per Table 5 (fixed, not scaled).
	khCarve := map[netmodel.ASN]int{
		25229: 32, 15895: 10, 6877: 10, 6849: 6, 6703: 3,
		6698: 2, 30823: 2, 12883: 1, 6846: 1, 12687: 1,
	}
	for _, isp := range nationalISPs {
		kh := khCarve[isp.ASN]
		n := b.scaleCount(isp.Blocks)
		if n < kh+3 {
			n = kh + 3
		}
		hq := netmodel.Kyiv
		if isp.Foreign {
			hq = netmodel.RegionNone
		}
		as := &netmodel.AS{ASN: isp.ASN, Name: isp.Name, HQ: hq, Foreign: isp.Foreign}
		blocks := b.addAS(as, n, ASTraits{National: true})
		for i, blk := range blocks {
			t := b.bt[blk]
			switch {
			case i < kh:
				// Stable Kherson-regional blocks of a national ISP.
				b.blockDefaults(t, netmodel.Kherson, false)
				t.Static = true
				b.khersonBlocksOf[isp.ASN] = append(b.khersonBlocksOf[isp.ASN], blk)
			case b.h(0xd11a, uint64(blk))%100 < 35:
				// Dynamic pool: hops regions every few months.
				b.blockDefaults(t, weightedRegion(b.h(0x9a, uint64(blk))), false)
				t.Dynamic = true
				t.Static = false
			default:
				b.blockDefaults(t, weightedRegion(b.h(0x9b, uint64(blk))), false)
				if b.h(0x5a4, uint64(blk))%100 < 40 {
					t.Static = true
				}
			}
		}
	}
}

// nextASN returns the first number after asn that no AS built so far owns:
// the synthetic ranges are long enough to reach numbers the named tables use
// (Table 5's AS 49168 from Scale ≈ 0.85).
func (b *builder) nextASN(asn netmodel.ASN) netmodel.ASN {
	for asn++; b.traits[asn] != nil; asn++ {
	}
	return asn
}

func (b *builder) buildRegionalASes() {
	asn := netmodel.ASN(48000)
	for _, region := range netmodel.Regions() {
		if region == netmodel.Kherson {
			continue // exact Table-5 modelling
		}
		count := b.scaleCount(regionParams[region].RegionalAS)
		for i := 0; i < count; i++ {
			asn = b.nextASN(asn)
			u := netmodel.UnitFloat(b.h(0x4e9, uint64(asn)))
			size := 1 + int(39*u*u*u) // heavy tail of small providers
			as := &netmodel.AS{ASN: asn, Name: fmt.Sprintf("%s-Net-%d", region, i+1), HQ: region}
			blocks := b.addAS(as, size, ASTraits{})
			for _, blk := range blocks {
				b.blockDefaults(b.bt[blk], region, true)
			}
		}
	}
}

func (b *builder) buildMultiRegionASes() {
	asn := netmodel.ASN(62000)
	count := b.scaleCount(470)
	for i := 0; i < count; i++ {
		asn = b.nextASN(asn)
		h := b.h(0x3417, uint64(asn))
		size := 3 + int(h%10)
		as := &netmodel.AS{ASN: asn, Name: fmt.Sprintf("Multi-%d", i+1), HQ: weightedRegion(h >> 8)}
		blocks := b.addAS(as, size, ASTraits{})
		for j, blk := range blocks {
			region := weightedRegion(b.h(0x88, uint64(asn), uint64(j)))
			b.blockDefaults(b.bt[blk], region, false)
		}
	}
}

// buildLeasedASes models providers using foreign-delegated space: present in
// geolocation, absent from the UA target set (Stream Kherson and Online Net,
// plus a few generated elsewhere).
func (b *builder) buildLeasedASes() {
	add := func(asn netmodel.ASN, name string, blocks int) {
		as := &netmodel.AS{ASN: asn, Name: name, HQ: netmodel.Kherson}
		var ps []netmodel.Prefix
		for i := 0; i < blocks; i++ {
			ps = append(ps, netmodel.MustNewPrefix(b.leasedCursor.First(), 24))
			b.leasedCursor++
		}
		as.Prefixes = ps
		b.leased = append(b.leased, as)
	}
	add(42782, "Stream Kherson", 3)
	add(39667, "Online Net", 2)
}

// applyChurn scripts the Fig-1 address migration: declining regions lose a
// hash-selected fraction of their blocks to Kyiv/Chernihiv or abroad.
func (b *builder) applyChurn() {
	months := b.tl.NumMonths()
	khersonRegional := KhersonRegionalASNs()
	for blk, t := range b.bt {
		if t.Dynamic || !t.HomeRegion.Valid() {
			continue
		}
		churn := regionParams[t.HomeRegion].ChurnPct
		if churn >= 0 {
			continue
		}
		h := b.h(0xc4a, uint64(blk))
		moveFrac := -churn / 100
		abroadShare := 0.55
		if t.HomeRegion == netmodel.Kherson {
			moveFrac = 0.74 // only 26% of Kherson IPs remained (§4.1)
			abroadShare = 0.29 / 0.74
		}
		hMove := netmodel.Mix64(h ^ 0x01)
		hDest := netmodel.Mix64(h ^ 0x02)
		hCountry := netmodel.Mix64(h ^ 0x03)
		hMonth := netmodel.Mix64(h ^ 0x04)
		if netmodel.UnitFloat(hMove) >= moveFrac {
			continue
		}
		// Kherson's 13 regional providers keep their blocks home while
		// announced (their outages are the study's subject). Blocks of the
		// seven providers that cease announcing drift abroad a couple of
		// months later, and a share of the others' geolocations churn away
		// late in the campaign — late enough that the ≥70%-of-routed-months
		// rule still classifies them regional. This is what pushes
		// Kherson's retained share down to ~26% (§4.1).
		if slices.Contains(khersonRegional, t.ASN) {
			tr := b.traits[t.ASN]
			months := int16(b.tl.NumMonths())
			switch {
			case tr != nil && !tr.ActiveTo.IsZero():
				mc := int16(b.tl.MonthIndex(tr.ActiveTo)) + 2
				if mc < months {
					t.MoveMonth = mc
					t.MoveRegion = netmodel.RegionNone
					t.MoveCountry = "US"
				}
			case netmodel.UnitFloat(netmodel.Mix64(h^0x05)) < 0.35 && months > 6:
				t.MoveMonth = months - 3 - int16(netmodel.Mix64(h^0x06)%3)
				t.MoveRegion = netmodel.Kyiv
			}
			continue
		}
		t.MoveMonth = int16(1 + hMonth%uint64(months-2))
		if netmodel.UnitFloat(hDest) < abroadShare {
			t.MoveRegion = netmodel.RegionNone
			switch v := hCountry % 100; {
			case v < 62:
				t.MoveCountry = "US"
				if t.ASN == 25229 { // Volia Kherson blocks → Amazon
					t.MoveASN = 16509
				}
			case v < 69:
				t.MoveCountry = "RU"
			case v < 73:
				t.MoveCountry = "DE"
			case v < 85:
				t.MoveCountry = "PL"
			default:
				t.MoveCountry = "NL"
			}
		} else {
			if hCountry>>32%100 < 78 {
				t.MoveRegion = netmodel.Kyiv
			} else {
				t.MoveRegion = netmodel.Chernihiv
			}
		}
	}
}

// generateFrontlineNoise scripts the recurring kinetic disruptions of
// frontline oblasts (and rare incidents elsewhere) that give Fig 8/9 their
// frontline-vs-non-frontline contrast.
func (b *builder) generateFrontlineNoise() {
	// Collect regional ASes per region as event targets.
	perRegion := make(map[netmodel.Region][]netmodel.ASN)
	for _, as := range b.ases {
		if tr := b.traits[as.ASN]; tr != nil && !tr.National && as.HQ.Valid() {
			perRegion[as.HQ] = append(perRegion[as.HQ], as.ASN)
		}
	}
	for _, region := range perRegion {
		sort.Slice(region, func(i, j int) bool { return region[i] < region[j] })
	}
	days := b.tl.NumDays()
	// Frontline oblasts additionally suffer region-scoped kinetic damage
	// (shelling of shared infrastructure), which decouples their Internet
	// outages from the power schedule (§5.1: frontline r = 0.298 vs 0.725).
	for _, region := range netmodel.FrontlineRegions() {
		if region == netmodel.Kherson {
			continue // Kherson has its own dense event script
		}
		for d := 0; d < days; d += 12 {
			h := b.h(0x4e6, uint64(region), uint64(d))
			if h%100 < 45 {
				continue
			}
			start := b.tl.Start().Add(time.Duration(d)*24*time.Hour +
				time.Duration(h>>16%uint64(12*24))*time.Hour)
			dur := time.Duration(6+h>>24%66) * time.Hour // 6h .. 3d
			ev := Event{
				Name: fmt.Sprintf("kinetic-%s-%d", region, d),
				From: start, To: start.Add(dur),
				Regions: []netmodel.Region{region},
			}
			if h>>32%2 == 0 {
				ev.Kind = EffectSilent
			} else {
				ev.Kind = EffectIPSDrop
				ev.Magnitude = 0.5 + 0.4*netmodel.UnitFloat(h>>40)
			}
			b.events = append(b.events, ev)
		}
	}
	for _, region := range netmodel.Regions() {
		targets := perRegion[region]
		if len(targets) == 0 {
			continue
		}
		periodDays := 8
		if !region.Frontline() {
			periodDays = 45
		}
		for d := 0; d < days; d += periodDays {
			h := b.h(0xf0e, uint64(region), uint64(d))
			if h%100 < 35 {
				continue // quiet window
			}
			target := targets[h>>8%uint64(len(targets))]
			start := b.tl.Start().Add(time.Duration(d)*24*time.Hour +
				time.Duration(h>>16%uint64(periodDays*24))*time.Hour)
			// Durations span brief strikes (an hour) to multi-day damage;
			// the short tail is what finer probing intervals catch (§5.4).
			dur := time.Duration(1+h>>24%95) * time.Hour // 1h .. 4d
			ev := Event{
				Name: fmt.Sprintf("noise-%s-%d", region, d),
				From: start, To: start.Add(dur),
				ASNs: []netmodel.ASN{target},
			}
			switch h >> 32 % 10 {
			case 0, 1, 2:
				ev.Kind = EffectBGPDown
			case 3, 4, 5:
				ev.Kind = EffectSilent
			default:
				ev.Kind = EffectIPSDrop
				ev.Magnitude = 0.4 + 0.5*netmodel.UnitFloat(h>>40)
			}
			b.events = append(b.events, ev)
		}
	}
}
