package campaign

import (
	"fmt"
	"strings"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scenario"
	"countrymon/internal/sim"
)

// World resolves one country's ground-truth world from its model reference
// under the campaign timeline. Every path ends in the same place — a
// sim.Spec assembled into a *sim.Scenario — so nothing downstream knows
// whether the country is the bundled war script, a scenario file or a
// synthetic model.
func (s *Spec) World(c *CountrySpec) (*sim.Scenario, error) {
	switch {
	case c.Model == "":
		return sim.Assemble(syntheticModel(c, s))
	case c.Model == "war":
		if c.Code != sim.DefaultCountry {
			return nil, fmt.Errorf("campaign: country %s: the war model is Ukraine (%s)", c.Code, sim.DefaultCountry)
		}
		model, err := sim.Ukraine(sim.Config{
			Seed:     c.Seed,
			Scale:    c.Scale,
			Interval: s.Interval,
			Start:    s.Start,
			End:      s.End(),
		})
		if err != nil {
			return nil, fmt.Errorf("campaign: country %s: %w", c.Code, err)
		}
		world, err := sim.Assemble(model)
		if err != nil {
			return nil, fmt.Errorf("campaign: country %s: %w", c.Code, err)
		}
		if got := world.TL.NumRounds(); got != s.Rounds {
			return nil, fmt.Errorf("campaign: country %s: war model has %d rounds, campaign %d", c.Code, got, s.Rounds)
		}
		return world, nil
	default:
		return s.scenarioWorld(c)
	}
}

// scenarioWorld compiles a scenario-DSL model (embedded library name or
// file path, scenario.Open) under the country's flag and checks it agrees
// with the campaign timeline: countries of one campaign advance in
// lockstep, so a scenario on a different cadence cannot join.
func (s *Spec) scenarioWorld(c *CountrySpec) (*sim.Scenario, error) {
	sc, err := scenario.Open(c.Model)
	if err != nil {
		return nil, fmt.Errorf("campaign: country %s: %w", c.Code, err)
	}
	switch {
	case sc.Country == "":
		sc.Country, sc.CountryName = c.Code, c.Name
	case sc.Country != c.Code:
		return nil, fmt.Errorf("campaign: country %s: scenario %s models %s", c.Code, sc.Name, sc.Country)
	}
	if !sc.Start.Equal(s.Start) || sc.Interval != s.Interval || sc.Rounds() != s.Rounds {
		return nil, fmt.Errorf("campaign: country %s: scenario %s timeline (%s, %v, %d rounds) differs from the campaign's (%s, %v, %d)",
			c.Code, sc.Name, sc.Start.Format(time.RFC3339), sc.Interval, sc.Rounds(),
			s.Start.Format(time.RFC3339), s.Interval, s.Rounds)
	}
	compiled, err := sc.Compile()
	if err != nil {
		return nil, fmt.Errorf("campaign: country %s: %w", c.Code, err)
	}
	return compiled.Sim, nil
}

// Synthetic model shape: a handful of ASes with one scripted full outage and
// one partial (IPS-only) dip, enough ground truth for the detection pipeline
// to have something to find without the cost of a war-scale world.
const (
	synASes       = 4
	synMinBlocks  = 3  // per AS, plus a hashed 0–2 extra
	synOutageFrom = 55 // percent of the campaign
	synOutageTo   = 65
	synDipFrom    = 30
	synDipTo      = 35
	synDipLoss    = 0.6
)

// synPoolBase is where synthetic address plans are carved: past the first
// 4096 /24s of 100.64.0.0/10, which internal/scenario's pool occupies.
var synPoolBase = netmodel.MustParseAddr("100.64.0.0").Block() + scenario.MaxBlocks

// syntheticModel builds a compact country as a pure function of the
// country's (code, seed) and the campaign timeline: same spec, same world,
// on any machine. Each code gets its own /24 slice of CGNAT space so two
// synthetic countries never share an address plan.
func syntheticModel(c *CountrySpec, s *Spec) sim.Spec {
	hash := func(salt uint64) uint64 { return netmodel.Mix64(netmodel.Mix64(c.Seed^salt) ^ codeBits(c.Code)) }
	regions := netmodel.Regions()

	spec := sim.Spec{
		Cfg: sim.Config{
			Seed:     c.Seed,
			Interval: s.Interval,
			Start:    s.Start,
			End:      s.End(),
		},
		Country:     c.Code,
		CountryName: c.Name,
	}

	// 64 slices of 256 /24s cover the rest of the /10; distinct codes map to
	// distinct slices unless they collide mod 48, which is harmless — each
	// country is its own measurement world with its own transports.
	slice := codeBits(c.Code) % 48
	next := synPoolBase + netmodel.BlockID(slice*256)

	roundAt := func(pct int) time.Time {
		return s.Start.Add(time.Duration(s.Rounds*pct/100) * s.Interval)
	}
	var outageAS, dipAS netmodel.ASN
	for i := 0; i < synASes; i++ {
		asn := netmodel.ASN(64512 + int(hash(0xa5)%960)*16 + i)
		region := regions[hash(uint64(0xb0+i))%uint64(len(regions))]
		blocks := synMinBlocks + int(hash(uint64(0xc0+i))%3)
		density := 100 + int(hash(uint64(0xd0+i))%120)
		respRate := 0.78 + 0.12*netmodel.UnitFloat(hash(uint64(0xe0+i)))

		model := &netmodel.AS{
			ASN:  asn,
			Name: fmt.Sprintf("%s-net-%d", strings.ToLower(c.Code), i),
			HQ:   region,
		}
		for b := 0; b < blocks; b++ {
			blk := next
			next++
			model.Prefixes = append(model.Prefixes, netmodel.MustNewPrefix(blk.First(), 24))
			spec.Blocks = append(spec.Blocks, sim.BlockTraits{
				Block:      blk,
				ASN:        asn,
				HomeRegion: region,
				Density:    uint8(density),
				RespRate:   float32(respRate),
				DeclineTo:  1,
				Diurnal:    hash(uint64(0xf0+b))%100 < 30,
				MoveMonth:  -1,
			})
		}
		spec.ASes = append(spec.ASes, sim.ASTraits{AS: model, National: i == 0})
		switch i {
		case 1:
			outageAS = asn
		case 2:
			dipAS = asn
		}
	}

	spec.Events = []sim.Event{
		{
			Name: "synthetic-outage",
			From: roundAt(synOutageFrom), To: roundAt(synOutageTo),
			ASNs: []netmodel.ASN{outageAS},
			Kind: sim.EffectBGPDown,
		},
		{
			Name: "synthetic-dip",
			From: roundAt(synDipFrom), To: roundAt(synDipTo),
			ASNs: []netmodel.ASN{dipAS},
			Kind: sim.EffectIPSDrop, Magnitude: synDipLoss,
		},
	}
	return spec
}

// codeBits packs a two-letter code into an integer for hashing and slicing.
func codeBits(code string) uint64 {
	if len(code) != 2 {
		return 0
	}
	return uint64(code[0]-'A')*26 + uint64(code[1]-'A')
}
