// Package sim is the ground-truth war simulator that substitutes for three
// years of live measurements of Ukraine (see DESIGN.md §2). It models the
// country's address space (ASes, /24 blocks, regions), scripts the conflict's
// events — the Mykolaiv cable cut, occupation-era rerouting through Russian
// upstreams, the Kakhovka dam flood, equipment seizures, power-grid strikes,
// address churn — and exposes the resulting state three ways:
//
//   - a packet-level Responder for internal/simnet, so the real scanner
//     code path can be exercised end to end;
//   - a fast statistical generator that fills a dataset.Store with the same
//     per-block, per-round observations for full-campaign analyses;
//   - generators for every external dataset the pipeline consumes (monthly
//     geolocation snapshots, RIPE delegations, BGP visibility, power data).
//
// Responsiveness follows a nested-set model: each /24 has a fixed "liveness
// order" of its 256 hosts, and host k answers a probe exactly when the
// block's current responsive count exceeds k's rank. This keeps the packet
// path and the statistical path bit-for-bit consistent and makes the monthly
// ever-active count E(b) equal the month's maximum per-round count, while
// preserving everything the outage signals consume.
package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/power"
	"countrymon/internal/timeline"
)

// Config controls scenario construction.
type Config struct {
	// Seed makes the whole scenario deterministic.
	Seed uint64
	// Scale is the fraction of the paper-scale address space to model
	// outside Kherson (Kherson's 34 ASes from Table 5 are always exact).
	// 1.0 ≈ 2,000 ASes / 35K /24 blocks (seed 1 builds 1,952 and 33,190); the
	// default 0.12 keeps the full three-year pipeline tractable on one core.
	Scale float64
	// Interval is the probing interval (the paper used 2h; experiments
	// default to 6h to bound memory/time at the default scale).
	Interval time.Duration
	// Start and End bound the campaign.
	Start, End time.Time
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.12
	}
	if c.Interval == 0 {
		c.Interval = 6 * time.Hour
	}
	if c.Start.IsZero() {
		c.Start = timeline.DefaultStart
	}
	if c.End.IsZero() {
		c.End = timeline.DefaultEnd
	}
	return c
}

// ASTraits is simulation ground truth for one AS.
type ASTraits struct {
	AS *netmodel.AS
	// National marks ISPs operating across many regions (Kyivstar,
	// Ukrtelecom, ...) whose dynamic pools churn between oblasts.
	National bool
	// ActiveFrom/ActiveTo bound the AS's BGP presence; zero values mean
	// the whole campaign. Seven Kherson ASes cease announcing before 2025
	// (§4.3); a few appear only later.
	ActiveFrom, ActiveTo time.Time
	// The same bounds on the owning scenario's clock (see Scenario.clock), an
	// open bound at the clock's end; indexEvents fills them.
	activeFrom, activeTo int64
}

// Active reports whether the AS announces prefixes at the given time.
func (a *ASTraits) Active(at time.Time) bool {
	if !a.ActiveFrom.IsZero() && at.Before(a.ActiveFrom) {
		return false
	}
	if !a.ActiveTo.IsZero() && !at.Before(a.ActiveTo) {
		return false
	}
	return true
}

// BlockTraits is simulation ground truth for one /24 block.
type BlockTraits struct {
	Block netmodel.BlockID
	ASN   netmodel.ASN
	// HomeRegion is where the block's users are at campaign start.
	HomeRegion netmodel.Region
	// Density is the number of ever-active hosts at campaign start (the
	// size of the block's live population, ≤ 256).
	Density uint8
	// RespRate is the long-term fraction of the live population answering
	// a given probe round under normal conditions.
	RespRate float32
	// DeclineTo is the activity multiplier reached by campaign end
	// (subscriber loss; drives the −18% overall response decline).
	DeclineTo float32
	// Diurnal marks blocks with visible day/night cycles.
	Diurnal bool
	// Static marks precisely geolocated blocks (data centres, offices):
	// low radius, no drift.
	Static bool
	// Dynamic marks national-ISP pool blocks that hop between regions
	// every few months (the churn §4.1 attributes to Ukrtelecom, Kyivstar,
	// Vodafone and Vega).
	Dynamic bool
	// GridSensitive marks blocks whose equipment dies with the power grid
	// (no backup); BackupHours is how long others bridge an outage.
	GridSensitive bool
	BackupHours   float32

	// MoveMonth, when ≥ 0, is the campaign month at which the block's
	// geolocation moves: to MoveRegion (intra-Ukraine churn) or abroad to
	// MoveCountry with MoveASN taking over announcements (e.g. Volia
	// Kherson blocks reappearing under Amazon).
	MoveMonth   int16
	MoveRegion  netmodel.Region
	MoveCountry string
	MoveASN     netmodel.ASN

	// DriftFrac is the persistent fraction of the block's addresses that
	// geolocate to DriftRegion instead of home (IP drift, §4.2).
	DriftFrac   float32
	DriftRegion netmodel.Region
}

// Moved reports whether the block has moved by (dense) month m, and where.
func (b *BlockTraits) Moved(m int) bool { return b.MoveMonth >= 0 && m >= int(b.MoveMonth) }

// EffectKind enumerates what a scripted event does to its scope.
type EffectKind uint8

const (
	// EffectBGPDown withdraws prefixes: no routes, no responses.
	EffectBGPDown EffectKind = iota
	// EffectSilent keeps routes up but hosts stop responding (kinetic
	// damage behind an intact announcement).
	EffectSilent
	// EffectIPSDrop multiplies responsiveness by (1 − Magnitude), leaving
	// blocks active: the partial outages only the IPS▲ signal sees.
	EffectIPSDrop
	// EffectReroute adds RTTDeltaMS to round-trip times and marks paths as
	// crossing a Russian upstream.
	EffectReroute
	// EffectDiurnalOnly limits responsiveness to daylight hours (the
	// post-liberation generator-powered recovery, Fig 14).
	EffectDiurnalOnly
)

// Event is one scripted disruption. A block is affected when it matches any
// populated scope dimension (AS list, home-region list, or explicit blocks).
type Event struct {
	Name       string
	From, To   time.Time
	ASNs       []netmodel.ASN
	Regions    []netmodel.Region
	Blocks     []netmodel.BlockID
	Kind       EffectKind
	Magnitude  float64 // for EffectIPSDrop: fraction of responsiveness lost
	RTTDeltaMS int     // for EffectReroute
}

// Scenario is a fully built simulation. What it describes is immutable after
// Build and the caches it fills on use are atomic or built once, so it is safe
// for concurrent readers.
type Scenario struct {
	Cfg   Config
	TL    *timeline.Timeline
	Space *netmodel.Space
	Power *power.Schedule
	// Missing and Degraded (round → the coverage kept) are the vantage
	// plan, which a vantage meets on the wire (Wire).
	Missing  []bool
	Degraded map[int]float64

	// Country is the ISO code the scenario's address space geolocates to
	// (the country model's Code; DefaultCountry when the spec named none),
	// and CountryName its display name. Everything country-specific in the
	// scenario — geo snapshots, RIPE delegations, leased-space handling —
	// keys off this value.
	Country     string
	CountryName string

	blocks   []BlockTraits // aligned with Space.Blocks()
	asTraits map[netmodel.ASN]*ASTraits
	// blockAS[bi] is the AS traits of block bi (nil if unknown), hoisted out
	// of the per-round state evaluation.
	blockAS []*ASTraits
	// regionKeys[r] is region r's hash-derived constants (see indexRegions).
	regionKeys []regionKey
	events     []Event
	// index is the event script compiled per class of blocks (see
	// indexEvents); rounds holds the instant of every round start, built on
	// first use (see roundInstants).
	index      eventIndex
	rounds     []instant
	roundsOnce sync.Once

	// liveOrder caches per-block host liveness ranks (lazily built).
	liveOrder liveOrderCache

	// memo[bi] is BlockStateAt's last evaluated (minute, state) of block bi.
	// edgeMinutes[bi] lists the Unix minutes that hold an AS-activity or event
	// edge of the block strictly inside them; minutes before memoFrom start
	// before round 0; gridAligned says round and epoch edges all fall on
	// minute starts. See steady.
	memo        []atomic.Uint64
	edgeMinutes [][]int64
	memoFrom    int64
	gridAligned bool

	// leased are ASes present in Kherson but delegated to a foreign
	// country (the Stream Kherson / Online Net limitation, §4.3): they are
	// geolocated to Kherson yet absent from the UA target set.
	leased []*netmodel.AS
}

// Blocks returns per-block ground truth aligned with Space.Blocks().
func (s *Scenario) Blocks() []BlockTraits { return s.blocks }

// BlockTraitsAt returns ground truth for block index bi.
func (s *Scenario) BlockTraitsAt(bi int) *BlockTraits { return &s.blocks[bi] }

// ASTraitsOf returns ground truth for an AS (nil if unknown).
func (s *Scenario) ASTraitsOf(asn netmodel.ASN) *ASTraits { return s.asTraits[asn] }

// Events returns the scripted events.
func (s *Scenario) Events() []Event { return s.events }

// LeasedASes returns the foreign-delegated Kherson ASes (not probed).
func (s *Scenario) LeasedASes() []*netmodel.AS { return s.leased }
