// Package scenario is the declarative adversity layer on top of internal/sim:
// scenarios — address space, per-AS behaviour, scripted events, power strikes
// and vantage degradation — are data (seeded JSON files), compiled through
// sim.Assemble into the same ground-truth machinery the war script uses, and
// every scenario ships its own labels: which windows are genuine outages and
// which are ambiguities that must NOT be detected (reroutes, latency shifts,
// baseline drift, dynamic-pool churn).
//
// On top of the compiler sits the scorecard harness: it runs the real Monitor
// (packet-level simnet scans), the signals pipeline and the Trinocular
// baseline over a compiled scenario and scores each against the embedded
// ground truth — per-entity precision over rounds, recall over labeled
// windows, and detection latency. The library's scorecards are committed as
// goldens, so an engine change that degrades detection against any labeled
// adversity fails `TestScorecardsMatchGoldens`.
package scenario

import (
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/power"
	"countrymon/internal/sim"
)

// Validation bounds. Scenario files are hand-authored test fixtures, not a
// general config surface: the caps keep a malformed or fuzzed file from
// requesting an absurd world, and parse errors past them are rejections, not
// clamps.
const (
	MaxDays       = 1200
	MaxASes       = 128
	MaxBlocks     = 4096
	MaxEvents     = 256
	MaxStrikes    = 64
	MaxWindows    = 64
	MinInterval   = 15 * time.Minute
	MaxInterval   = 24 * time.Hour
	MaxNameLen    = 64
	MaxSlack      = 7 * 24 * time.Hour
	MaxRTTDeltaMS = 2000
)

// Spec is a parsed, validated scenario: all names resolved, all event times
// absolute, all bounds checked. Compile turns it into a running world.
type Spec struct {
	Name        string
	Description string
	Seed        uint64
	// Country is the ISO code the scenario's address space geolocates to,
	// with CountryName its display name; empty means Ukraine
	// (sim.DefaultCountry). This is how a scenario file models a country
	// other than the war script's.
	Country     string
	CountryName string
	Start       time.Time
	Interval    time.Duration
	Days        int

	ASes    []ASSpec
	Events  []EventSpec
	Strikes []power.Strike
	Missing []VantageWindow
	Score   ScoreSpec
}

// ASSpec declares one AS: how many /24 blocks it announces (carved
// sequentially from the scenario pool), where it is homed, and the behaviour
// profile its blocks draw from. Percent fields select a per-block hash-chosen
// subset, so a profile of "30% dynamic" is deterministic per seed.
type ASSpec struct {
	ASN      netmodel.ASN
	Name     string
	Region   netmodel.Region
	Blocks   int
	Density  int
	RespRate float64
	// DeclineTo is the end-of-campaign activity multiplier (1 = flat).
	DeclineTo float64

	DiurnalPct       int
	GridSensitivePct int
	BackupHours      float64
	DynamicPct       int
	Static           bool
	National         bool

	// Migrate moves a hash-chosen MigratePct of the AS's blocks in campaign
	// month MigrateMonth: inside Ukraine to MigrateRegion, or abroad to
	// MigrateCountry.
	MigratePct     int
	MigrateMonth   int
	MigrateRegion  netmodel.Region
	MigrateCountry string

	// Drift gives DriftPct of blocks a persistent DriftFrac share of
	// addresses geolocating to DriftRegion.
	DriftPct    int
	DriftFrac   float64
	DriftRegion netmodel.Region
}

// Label classifies a scripted event for scoring.
type Label uint8

const (
	// LabelOutage windows must be detected: a flagged round inside one is a
	// true positive, a window with no flagged round is a miss.
	LabelOutage Label = iota
	// LabelBenign windows must NOT be detected: they script the ambiguities
	// (reroutes, latency shifts) that look like outages to naive detectors,
	// and any flagged round inside one is a false positive.
	LabelBenign
)

func (l Label) String() string {
	if l == LabelBenign {
		return "benign"
	}
	return "outage"
}

// EventSpec is one resolved scripted event.
type EventSpec struct {
	Name       string
	From, To   time.Time
	Effect     sim.EffectKind
	Magnitude  float64
	RTTDeltaMS int
	ASNs       []netmodel.ASN
	Regions    []netmodel.Region
	// BlockPct scopes the event to a hash-chosen subset of the matched
	// blocks (100 = all of them).
	BlockPct int
	Label    Label
}

// VantageWindow scripts vantage-side data loss: Coverage 0 is a full vantage
// outage (rounds recorded missing), a positive Coverage is a degraded window
// — rounds scan normally but are recorded as salvaged partial rounds with
// that coverage, exercising the signal pipeline's coverage gate.
type VantageWindow struct {
	From, To time.Time
	Coverage float64
}

// ScoreSpec says what the scorecard evaluates and how.
type ScoreSpec struct {
	ASes    []netmodel.ASN
	Regions []netmodel.Region
	// Warmup excludes the campaign's first rounds from scoring: the moving
	// average needs a baseline before flags mean anything.
	Warmup time.Duration
	// Slack is the grace tail after each outage window in which flags count
	// neither for nor against: detection runs merge trailing rounds while
	// the moving average adapts.
	Slack time.Duration
}

// End returns the campaign end bound (see sim.SpecEnd).
func (s *Spec) End() time.Time { return sim.SpecEnd(s.Start, s.Days, s.Interval) }

// Rounds returns the campaign's round count.
func (s *Spec) Rounds() int { return s.Days * int(24*time.Hour/s.Interval) }
