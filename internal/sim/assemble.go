package sim

import (
	"fmt"
	"time"

	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/power"
	"countrymon/internal/timeline"
)

// DefaultCountry is the country code a Spec defaults to when it names none:
// every scenario file and spec predating multi-country support describes
// Ukraine, so the zero value keeps them meaning what they always meant.
const DefaultCountry = geodb.CountryUA

// Spec is one country expressed as data — address space, per-block ground
// truth, event script — that Assemble turns into a Scenario with the same
// evaluation machinery for every country: the packet-level Responder, the
// statistical generator and the Trinocular probe view all work identically.
// The bundled war generator (Ukraine) emits one, internal/scenario compiles
// its declarative files into one, and internal/campaign derives synthetic
// ones.
type Spec struct {
	// Cfg needs Seed, Interval, Start and End; Scale is ignored (the space
	// is given explicitly).
	Cfg Config
	// Country is the ISO code the spec's address space geolocates to;
	// empty defaults to DefaultCountry (pre-multi-country specs all
	// describe Ukraine). CountryName is the display name.
	Country     string
	CountryName string
	// ASes carries one traits entry per AS; each entry's AS pointer must be
	// populated, including its Prefixes.
	ASes []ASTraits
	// Blocks is the per-/24 ground truth, one entry per block of every AS
	// prefix (any order). A zero-valued move script (MoveMonth 0 with no
	// destination) is normalized to "never moves".
	Blocks []BlockTraits
	// Events is the scripted disruption list, in any order — indexing sorts
	// defensively.
	Events []Event
	// Power is the electricity ground truth; nil means a flat schedule with
	// no outages.
	Power *power.Schedule
	// Missing marks vantage-outage rounds; nil means none. When non-nil its
	// length must equal the timeline's round count.
	Missing []bool
	// Degraded maps a round to the coverage in (0, 1) the vantage keeps of
	// it; it overrides Missing.
	Degraded map[int]float64
	// Leased lists foreign-delegated ASes that geolocate into the country
	// but are absent from the target set.
	Leased []*netmodel.AS
}

// Assemble builds a Scenario from an explicit Spec. Unlike Build it scripts
// nothing itself: what is in the spec is the whole world.
func Assemble(spec Spec) (*Scenario, error) {
	cfg := spec.Cfg
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("sim: assemble: Interval must be positive")
	}
	if cfg.Start.IsZero() || !cfg.End.After(cfg.Start) {
		return nil, fmt.Errorf("sim: assemble: Start and End must bound a non-empty campaign")
	}
	if len(spec.ASes) == 0 {
		return nil, fmt.Errorf("sim: assemble: at least one AS is required")
	}
	if len(spec.Events) > maxEvents {
		return nil, fmt.Errorf("sim: assemble: %d events, the limit is %d", len(spec.Events), maxEvents)
	}
	tl := timeline.New(cfg.Start, cfg.End, cfg.Interval)

	ases := make([]*netmodel.AS, len(spec.ASes))
	traits := make(map[netmodel.ASN]*ASTraits, len(spec.ASes))
	for i := range spec.ASes {
		tr := spec.ASes[i] // copy: the scenario owns its traits
		if tr.AS == nil {
			return nil, fmt.Errorf("sim: assemble: ASes[%d] has no AS", i)
		}
		if _, dup := traits[tr.AS.ASN]; dup {
			return nil, fmt.Errorf("sim: assemble: duplicate AS %d", tr.AS.ASN)
		}
		ases[i] = tr.AS
		traits[tr.AS.ASN] = &tr
	}
	space, err := netmodel.BuildSpace(ases)
	if err != nil {
		return nil, fmt.Errorf("sim: assemble: %w", err)
	}

	bt := make(map[netmodel.BlockID]*BlockTraits, len(spec.Blocks))
	for i := range spec.Blocks {
		t := spec.Blocks[i] // copy
		if _, dup := bt[t.Block]; dup {
			return nil, fmt.Errorf("sim: assemble: duplicate traits for block %v", t.Block)
		}
		if int(t.HomeRegion) > netmodel.NumRegions {
			return nil, fmt.Errorf("sim: assemble: block %v has home region %d, past the last", t.Block, t.HomeRegion)
		}
		// Zero-value move script means "never moves": Moved() treats
		// MoveMonth 0 as a scripted month-0 move, which no caller building
		// traits literally ever wants.
		if t.MoveMonth == 0 && !t.MoveRegion.Valid() && t.MoveCountry == "" && t.MoveASN == 0 {
			t.MoveMonth = -1
		}
		bt[t.Block] = &t
	}

	pow := spec.Power
	if pow == nil {
		pow = power.Scripted(cfg.Start, tl.NumDays(), nil, cfg.Seed^0x9041)
	}
	missing := spec.Missing
	if missing == nil {
		missing = make([]bool, tl.NumRounds())
	} else if len(missing) != tl.NumRounds() {
		return nil, fmt.Errorf("sim: assemble: Missing has %d rounds, timeline %d",
			len(missing), tl.NumRounds())
	}

	country := spec.Country
	if country == "" {
		country = DefaultCountry
	}
	sc := &Scenario{
		Cfg:         cfg,
		TL:          tl,
		Space:       space,
		Power:       pow,
		Missing:     missing,
		Degraded:    spec.Degraded,
		Country:     country,
		CountryName: spec.CountryName,
		asTraits:    traits,
		events:      append([]Event(nil), spec.Events...),
		leased:      spec.Leased,
	}
	sc.liveOrder = newLiveOrderCache(cfg.Seed^0x11fe, space.Blocks())
	sc.blocks = make([]BlockTraits, space.NumBlocks())
	for i, blk := range space.Blocks() {
		t, ok := bt[blk]
		if !ok {
			return nil, fmt.Errorf("sim: assemble: block %v has no traits", blk)
		}
		sc.blocks[i] = *t
	}
	sc.indexEvents()
	sc.indexRegions()
	return sc, nil
}

// SpecEnd returns the End bound for a campaign of the given number of whole
// days probed at interval: the last round lands interval before the next day
// boundary, so NumRounds == days·24h/interval exactly.
func SpecEnd(start time.Time, days int, interval time.Duration) time.Time {
	return start.Add(time.Duration(days)*24*time.Hour - interval)
}
