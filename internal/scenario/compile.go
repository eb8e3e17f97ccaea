package scenario

import (
	"fmt"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/power"
	"countrymon/internal/sim"
)

// poolBase is the first /24 of the scenario address pool (100.64.0.0/10,
// CGNAT space — guaranteed disjoint from the war script's real prefixes).
// AS blocks are carved from it sequentially, so a scenario's address plan is
// a pure function of its AS list.
var poolBase = netmodel.MustParseAddr("100.64.0.0").Block()

// TruthWindow is one labeled ground-truth interval for one scored entity
// ("as:64500" or "region:Kyiv"). Benign windows are ambiguities that must
// not be flagged; the rest are outages that must be.
type TruthWindow struct {
	Entity   string
	Name     string
	From, To time.Time
	Benign   bool
}

// Compiled is a scenario ready to run: the assembled simulator, vantage
// plan included, plus the labels the scorecard harness consumes.
type Compiled struct {
	Spec *Spec
	Sim  *sim.Scenario
	// Truth holds every labeled window, benign and outage, per entity.
	Truth []TruthWindow
}

// ASEntity and RegionEntity name scorecard entities consistently everywhere
// (truth derivation, scoring, goldens).
func ASEntity(asn netmodel.ASN) string      { return fmt.Sprintf("as:%d", asn) }
func RegionEntity(r netmodel.Region) string { return "region:" + r.String() }

// Compile turns a validated Spec into a running world. Every stochastic
// choice (per-block trait assignment, event block subsets) is a pure hash of
// (seed, identifiers), so the same file always compiles to the same campaign.
func (s *Spec) Compile() (*Compiled, error) {
	spec := sim.Spec{
		Cfg: sim.Config{
			Seed:     s.Seed,
			Interval: s.Interval,
			Start:    s.Start,
			End:      s.End(),
		},
		Country:     s.Country,
		CountryName: s.CountryName,
	}

	// Carve the address plan and per-block traits.
	next := poolBase
	asBlocks := make(map[netmodel.ASN][]netmodel.BlockID, len(s.ASes))
	regionASes := make(map[netmodel.Region][]netmodel.ASN)
	for i := range s.ASes {
		as := &s.ASes[i]
		model := &netmodel.AS{ASN: as.ASN, Name: as.Name, HQ: as.Region}
		regionASes[as.Region] = append(regionASes[as.Region], as.ASN)
		for b := 0; b < as.Blocks; b++ {
			blk := next
			next++
			model.Prefixes = append(model.Prefixes, netmodel.MustNewPrefix(blk.First(), 24))
			asBlocks[as.ASN] = append(asBlocks[as.ASN], blk)
			spec.Blocks = append(spec.Blocks, s.blockTraits(as, blk))
		}
		spec.ASes = append(spec.ASes, sim.ASTraits{AS: model, National: as.National})
	}

	// Events: full-scope events pass their AS/region scope through; percent
	// events pin an explicit hash-chosen block subset (sim matches scope
	// dimensions as a union, so the subset must be the only dimension).
	for i := range s.Events {
		ev := &s.Events[i]
		out := sim.Event{
			Name: ev.Name, From: ev.From, To: ev.To, Kind: ev.Effect,
			Magnitude: ev.Magnitude, RTTDeltaMS: ev.RTTDeltaMS,
		}
		if ev.BlockPct >= 100 {
			out.ASNs = append([]netmodel.ASN(nil), ev.ASNs...)
			out.Regions = append([]netmodel.Region(nil), ev.Regions...)
		} else {
			nameSeed := nameHash(ev.Name)
			for _, asn := range scopeASNs(ev, regionASes) {
				for _, blk := range asBlocks[asn] {
					if netmodel.Hash3(s.Seed^0xe7e1, uint64(blk), nameSeed)%100 < uint64(ev.BlockPct) {
						out.Blocks = append(out.Blocks, blk)
					}
				}
			}
			if len(out.Blocks) == 0 {
				return nil, fmt.Errorf("scenario %s: event %q selects no blocks", s.Name, ev.Name)
			}
		}
		spec.Events = append(spec.Events, out)
	}

	if len(s.Strikes) > 0 {
		spec.Power = power.Scripted(s.Start, s.Days, s.Strikes, s.Seed^0x9041)
	}

	// Vantage plan: full-outage windows become the sim's missing mask,
	// degraded windows its round → coverage map.
	rounds := s.Rounds()
	spec.Missing = make([]bool, rounds)
	spec.Degraded = make(map[int]float64)
	for _, w := range s.Missing {
		for _, r := range windowRounds(w.From, w.To, s.Start, s.Interval, rounds) {
			if w.Coverage == 0 {
				spec.Missing[r] = true
			} else {
				spec.Degraded[r] = w.Coverage
			}
		}
	}

	world, err := sim.Assemble(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return &Compiled{
		Spec:  s,
		Sim:   world,
		Truth: s.truthWindows(regionASes),
	}, nil
}

// MustCompile is Compile that panics on error, for the embedded library.
func (s *Spec) MustCompile() *Compiled {
	c, err := s.Compile()
	if err != nil {
		panic(err)
	}
	return c
}

// blockTraits derives one block's behaviour from its AS profile. Each field
// draws from an independent salted hash so trait membership is uncorrelated.
func (s *Spec) blockTraits(as *ASSpec, blk netmodel.BlockID) sim.BlockTraits {
	field := func(salt uint64) uint64 { return netmodel.Hash3(s.Seed^0x5eca, uint64(blk), salt) }
	pick := func(salt uint64, pct int) bool { return field(salt)%100 < uint64(pct) }

	// Density jitters ±1/8 around the profile so blocks are not clones.
	density := as.Density
	if spread := as.Density / 8; spread > 0 {
		density += int(field(1)%uint64(2*spread+1)) - spread
	}
	if density < 1 {
		density = 1
	}
	if density > 255 {
		density = 255
	}
	rate := as.RespRate * (0.95 + 0.1*netmodel.UnitFloat(field(2)))
	if rate > 1 {
		rate = 1
	}

	t := sim.BlockTraits{
		Block:       blk,
		ASN:         as.ASN,
		HomeRegion:  as.Region,
		Density:     uint8(density),
		RespRate:    float32(rate),
		DeclineTo:   float32(as.DeclineTo),
		Diurnal:     pick(3, as.DiurnalPct),
		BackupHours: float32(as.BackupHours),
		MoveMonth:   -1,
	}
	t.GridSensitive = pick(4, as.GridSensitivePct)
	t.Dynamic = pick(5, as.DynamicPct)
	t.Static = as.Static && !t.Dynamic
	if as.DriftPct > 0 && pick(6, as.DriftPct) {
		t.DriftFrac = float32(as.DriftFrac)
		t.DriftRegion = as.DriftRegion
	}
	if as.MigratePct > 0 && pick(7, as.MigratePct) {
		t.MoveMonth = int16(as.MigrateMonth)
		t.MoveRegion = as.MigrateRegion
		t.MoveCountry = as.MigrateCountry
	}
	return t
}

// scopeASNs expands an event's scope to the ASes it touches: the listed
// ASNs plus every AS homed in a listed region.
func scopeASNs(ev *EventSpec, regionASes map[netmodel.Region][]netmodel.ASN) []netmodel.ASN {
	seen := make(map[netmodel.ASN]bool)
	var out []netmodel.ASN
	add := func(asn netmodel.ASN) {
		if !seen[asn] {
			seen[asn] = true
			out = append(out, asn)
		}
	}
	for _, asn := range ev.ASNs {
		add(asn)
	}
	for _, r := range ev.Regions {
		for _, asn := range regionASes[r] {
			add(asn)
		}
	}
	return out
}

// windowRounds lists the rounds whose probe time falls inside [from, to).
func windowRounds(from, to, start time.Time, interval time.Duration, rounds int) []int {
	fromR := int((from.Sub(start) + interval - 1) / interval)
	toR := int((to.Sub(start) + interval - 1) / interval)
	if fromR < 0 {
		fromR = 0
	}
	if toR > rounds {
		toR = rounds
	}
	var out []int
	for r := fromR; r < toR; r++ {
		out = append(out, r)
	}
	return out
}

// truthWindows derives the per-entity label set: every event labels the ASes
// it touches (and any regions it is explicitly scoped to); every power
// strike labels its regions and the ASes homed there.
func (s *Spec) truthWindows(regionASes map[netmodel.Region][]netmodel.ASN) []TruthWindow {
	var out []TruthWindow
	for i := range s.Events {
		ev := &s.Events[i]
		benign := ev.Label == LabelBenign
		for _, asn := range scopeASNs(ev, regionASes) {
			out = append(out, TruthWindow{
				Entity: ASEntity(asn), Name: ev.Name,
				From: ev.From, To: ev.To, Benign: benign,
			})
		}
		for _, r := range ev.Regions {
			out = append(out, TruthWindow{
				Entity: RegionEntity(r), Name: ev.Name,
				From: ev.From, To: ev.To, Benign: benign,
			})
		}
	}
	for _, k := range s.Strikes {
		from := s.Start.Add(time.Duration(k.Day) * 24 * time.Hour)
		to := from.Add(time.Duration(k.Days) * 24 * time.Hour)
		name := fmt.Sprintf("power-strike-d%d", k.Day)
		for _, r := range k.Regions {
			out = append(out, TruthWindow{
				Entity: RegionEntity(r), Name: name, From: from, To: to,
			})
			for _, asn := range regionASes[r] {
				out = append(out, TruthWindow{
					Entity: ASEntity(asn), Name: name, From: from, To: to,
				})
			}
		}
	}
	return out
}

// nameHash is FNV-1a over the event name, feeding block-subset selection.
func nameHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
