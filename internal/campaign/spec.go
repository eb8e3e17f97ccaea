// Package campaign is the multi-country coordinator: one fleet.Supervisor's
// vantage pool shared by several per-country Monitors, driven round by round
// on a single goroutine so every country's output is as deterministic as a
// solo campaign's.
//
// A campaign.Spec names the countries, how the global scan-rate budget is
// split between them, and where each country's world comes from — the
// bundled Ukraine war model, a scenario-DSL file, or a compact synthetic
// model derived purely from (code, seed). New compiles the spec into joined
// fleet campaigns, Monitors and per-country serve Stores behind one
// serve.Router; Run interleaves the countries' rounds in spec order, so a
// vantage blackout hit during one country's scan is visible — breaker open,
// shards stolen — to every other country's scan of the same round.
//
// NewFleet, JoinCountry and VantageTransport are that fleet assembly on its own:
// cmd/countrymon -packet-rounds scans its one country through them, over one
// vantage or -vantages, so both front doors build their vantages one way.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Spec bounds, in the spirit of internal/scenario's: specs are operator
// configuration, not a general programming surface.
const (
	MaxCountries = 16
	MaxVantages  = 16
	MaxRounds    = 100000
)

// CountrySpec declares one monitored country.
type CountrySpec struct {
	// Code is the ISO 3166-1 alpha-2 code — the fleet campaign name, the
	// metrics label and the serve API path segment. Required, unique.
	Code string `json:"code"`
	// Name is the display name (defaults to the code).
	Name string `json:"name,omitempty"`
	// Share is this country's share of the fleet's global scan-rate budget,
	// in (0, 1]. Countries with share 0 split whatever the explicit shares
	// leave over, equally. The sum may not exceed 1.
	Share float64 `json:"share,omitempty"`
	// Seed makes the country's scans reproducible independently of the
	// campaign seed; 0 derives one from (campaign seed, code).
	Seed uint64 `json:"seed,omitempty"`
	// Model says where the country's world comes from:
	//
	//	""          compact synthetic model, a pure function of (code, seed)
	//	"war"       the bundled Ukraine war generator (code must be UA)
	//	"name"      a scenario from the embedded library, or else
	//	"path"      a scenario-DSL file on disk (scenario.Open)
	//
	// Scenario-backed models must agree with the campaign timeline.
	Model string `json:"model,omitempty"`
	// Scale is the war model's address-space scale (see sim.Config.Scale);
	// ignored by the other models.
	Scale float64 `json:"scale,omitempty"`
}

// Spec is a parsed, validated multi-country campaign.
type Spec struct {
	Countries []CountrySpec
	// Vantages is the shared fleet's size (default 3).
	Vantages int
	// Rounds, Interval and Start define the shared timeline every country
	// runs on (defaults 96 rounds at 2h from 2024-01-01).
	Rounds   int
	Interval time.Duration
	Start    time.Time
	// Rate is the fleet's global probing budget in packets/second, divided
	// between countries by their shares (default 2000).
	Rate int
	// Seed is the campaign master seed.
	Seed uint64
	// Quorum is the fleet's k-of-n corroboration quorum (0 = fleet default).
	Quorum int
	// CheckpointRoot, when set, gives every country a checkpoint file
	// <root>/<code>.ckpt.
	CheckpointRoot string
}

// fileDoc is the JSON wire form of a Spec.
type fileDoc struct {
	Countries      []CountrySpec `json:"countries"`
	Vantages       int           `json:"vantages,omitempty"`
	Rounds         int           `json:"rounds,omitempty"`
	Interval       string        `json:"interval,omitempty"`
	Start          string        `json:"start,omitempty"`
	Rate           int           `json:"rate,omitempty"`
	Seed           uint64        `json:"seed,omitempty"`
	Quorum         int           `json:"quorum,omitempty"`
	CheckpointRoot string        `json:"checkpoint_root,omitempty"`
}

// Parse decodes and validates a campaign spec document. Unknown fields are
// rejected — a typoed knob must not silently configure nothing.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var doc fileDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("campaign: parse: %w", err)
	}
	s := &Spec{
		Countries:      doc.Countries,
		Vantages:       doc.Vantages,
		Rounds:         doc.Rounds,
		Rate:           doc.Rate,
		Seed:           doc.Seed,
		Quorum:         doc.Quorum,
		CheckpointRoot: doc.CheckpointRoot,
	}
	if doc.Interval != "" {
		d, err := time.ParseDuration(doc.Interval)
		if err != nil {
			return nil, fmt.Errorf("campaign: interval: %w", err)
		}
		s.Interval = d
	}
	if doc.Start != "" {
		at, err := time.Parse(time.RFC3339, doc.Start)
		if err != nil {
			return nil, fmt.Errorf("campaign: start: %w", err)
		}
		s.Start = at.UTC()
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and parses a campaign spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return Parse(data)
}

// Quick builds the no-config spec the CLI's -countries flag implies: the
// listed countries on synthetic models with equal budget shares.
func Quick(codes []string) (*Spec, error) {
	s := &Spec{}
	for _, c := range codes {
		s.Countries = append(s.Countries, CountrySpec{Code: strings.ToUpper(strings.TrimSpace(c))})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks bounds, fills defaults and normalizes shares and seeds so
// that every derived quantity (per-country rate, per-country seed) is
// readable off the validated spec — the solo-equivalence tests depend on
// that.
func (s *Spec) Validate() error {
	if len(s.Countries) == 0 {
		return fmt.Errorf("campaign: at least one country required")
	}
	if len(s.Countries) > MaxCountries {
		return fmt.Errorf("campaign: %d countries exceeds the limit of %d", len(s.Countries), MaxCountries)
	}
	if s.Vantages == 0 {
		s.Vantages = 3
	}
	if s.Vantages < 1 || s.Vantages > MaxVantages {
		return fmt.Errorf("campaign: vantages %d outside [1, %d]", s.Vantages, MaxVantages)
	}
	if s.Rounds == 0 {
		s.Rounds = 96
	}
	if s.Rounds < 1 || s.Rounds > MaxRounds {
		return fmt.Errorf("campaign: rounds %d outside [1, %d]", s.Rounds, MaxRounds)
	}
	if s.Interval == 0 {
		s.Interval = 2 * time.Hour
	}
	if s.Interval < time.Minute {
		return fmt.Errorf("campaign: interval %v below 1m", s.Interval)
	}
	if s.Start.IsZero() {
		s.Start = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if s.Rate == 0 {
		s.Rate = 2000
	}
	if s.Rate < 0 {
		return fmt.Errorf("campaign: negative rate")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}

	seen := make(map[string]bool, len(s.Countries))
	used, unshared := 0.0, 0
	for i := range s.Countries {
		c := &s.Countries[i]
		if !validCode(c.Code) {
			return fmt.Errorf("campaign: country %q is not an ISO alpha-2 code", c.Code)
		}
		if seen[c.Code] {
			return fmt.Errorf("campaign: duplicate country %s", c.Code)
		}
		seen[c.Code] = true
		if c.Name == "" {
			c.Name = c.Code
		}
		if c.Share < 0 || c.Share > 1 {
			return fmt.Errorf("campaign: country %s: share %v outside [0, 1]", c.Code, c.Share)
		}
		if c.Share == 0 {
			unshared++
		}
		used += c.Share
		if c.Seed == 0 {
			c.Seed = deriveSeed(s.Seed, c.Code)
		}
	}
	if used > 1+1e-9 {
		return fmt.Errorf("campaign: country shares sum to %.3f > 1", used)
	}
	if unshared > 0 {
		if used >= 1-1e-9 {
			return fmt.Errorf("campaign: no budget share left for the %d countries without one", unshared)
		}
		each := (1 - used) / float64(unshared)
		for i := range s.Countries {
			if s.Countries[i].Share == 0 {
				s.Countries[i].Share = each
			}
		}
	}
	return nil
}

// End returns the timestamp of the last round (timeline.New's End bound is
// inclusive of the final round's slot).
func (s *Spec) End() time.Time {
	return s.Start.Add(time.Duration(s.Rounds-1) * s.Interval)
}

// CountryRate is the per-country scan rate the fleet enforces for code:
// the global budget scaled by the country's share, rounded like
// fleet.Join does. Solo reference campaigns must use this rate to reproduce
// a coordinator country byte for byte (pacing advances virtual time, so the
// rate is observable in the data).
func (s *Spec) CountryRate(code string) int {
	for _, c := range s.Countries {
		if c.Code == code {
			return int(float64(s.Rate)*c.Share + 0.5)
		}
	}
	return 0
}

// validCode reports whether s is an uppercase ISO 3166-1 alpha-2 code.
func validCode(s string) bool {
	return len(s) == 2 &&
		s[0] >= 'A' && s[0] <= 'Z' && s[1] >= 'A' && s[1] <= 'Z'
}

// deriveSeed gives a country a stable per-campaign seed: FNV-1a over the
// code, mixed with the master seed. Never zero (zero means "inherit" to the
// fleet).
func deriveSeed(master uint64, code string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(code); i++ {
		h = (h ^ uint64(code[i])) * 1099511628211
	}
	h ^= master
	if h == 0 {
		h = 1
	}
	return h
}
