package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	countrymon "countrymon"
	"countrymon/internal/signals"
	"countrymon/internal/timeline"
	"countrymon/internal/trinocular"
)

// EntityScore is one entity's detection quality against the scenario's
// ground truth.
type EntityScore struct {
	Entity string `json:"entity"`
	// Windows and Detected count labeled outage windows and how many had
	// at least one flagged round (inside the window or its slack tail).
	Windows  int `json:"windows"`
	Detected int `json:"detected"`
	// TruePosRounds are flagged rounds inside outage windows;
	// FalsePosRounds are flagged rounds in benign windows or unlabeled
	// time. Rounds in a slack tail count neither way.
	TruePosRounds  int     `json:"true_pos_rounds"`
	FalsePosRounds int     `json:"false_pos_rounds"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
	// MeanLatencyRounds is the mean rounds from outage onset to the first
	// flag, over detected windows (-1 when nothing was detected).
	MeanLatencyRounds float64 `json:"mean_latency_rounds"`
}

// Scorecard is the full detection report for one scenario: the signal
// pipeline and the Trinocular baseline scored entity by entity against the
// same embedded labels.
type Scorecard struct {
	Scenario      string `json:"scenario"`
	Rounds        int    `json:"rounds"`
	Blocks        int    `json:"blocks"`
	MissingRounds int    `json:"missing_rounds"`
	// DegradedRounds are salvaged partial rounds; whether they count is the
	// signal pipeline's coverage gate (signals.DefaultMinCoverage).
	DegradedRounds    int           `json:"degraded_rounds"`
	TrinocularTracked int           `json:"trinocular_tracked"`
	TrinocularProbes  uint64        `json:"trinocular_probes"`
	Signals           []EntityScore `json:"signals"`
	Trinocular        []EntityScore `json:"trinocular"`
}

// Encode renders the scorecard in its golden-file form: indented JSON with
// a trailing newline, floats rounded to 4 decimals at scoring time.
func (sc *Scorecard) Encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		panic(err) // static struct of plain fields; cannot fail
	}
	return buf.Bytes()
}

// RunScorecard drives the full detection stack over the compiled scenario —
// packet-level Monitor scans through simnet, the signals pipeline per scored
// entity, and the Trinocular baseline over the same store — and scores each
// against the embedded ground truth.
func (c *Compiled) RunScorecard() (*Scorecard, error) {
	spec := c.Spec
	world := c.Sim
	space := world.Space

	targets, origins := world.Targets()
	wire, clock := world.Wire(spec.Start, space.NumBlocks()*256, 0) // the Monitor's Rate: 0
	mon, err := countrymon.New(countrymon.Options{
		Transport: wire,
		Clock:     clock,
		Targets:   targets,
		Start:     spec.Start,
		Interval:  spec.Interval,
		Rounds:    spec.Rounds(),
		Seed:      spec.Seed,
		Origins:   origins,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	// The campaign: the world feeds ground-truth routing per round (the
	// monitor's BGP view), and its vantage windows black the wire out, so
	// the scan measures each: a dark round is recorded missing, a degraded
	// one salvaged at the coverage it reached.
	if err := mon.Run(context.Background(), countrymon.RunConfig{PreRound: world.PreRound(mon.SetRouted)}); err != nil {
		return nil, fmt.Errorf("scenario %s round %d: %w", spec.Name, mon.Round(), err)
	}

	card := &Scorecard{
		Scenario: spec.Name,
		Rounds:   spec.Rounds(),
		Blocks:   space.NumBlocks(),
	}
	st := mon.Store()
	for r, missing := range st.MissingRounds() {
		switch {
		case missing:
			card.MissingRounds++
		case st.Coverage(r) < 1:
			card.DegradedRounds++
		}
	}

	// Scoring skips rounds without usable data under the same coverage
	// gate the signal pipeline applies, so weakening the gate changes the
	// scorecard — that is the regression tripwire.
	effMissing := mon.Store().EffectiveMissing(signals.DefaultMinCoverage)
	warmup := int(spec.Score.Warmup / spec.Interval)
	slack := int(spec.Score.Slack / spec.Interval)

	// Signal pipeline per scored entity.
	for _, asn := range spec.Score.ASes {
		det := mon.DetectAS(asn)
		card.Signals = append(card.Signals,
			c.scoreEntity(ASEntity(asn), det.Flags, effMissing, warmup, slack))
	}
	if len(spec.Score.Regions) > 0 {
		if err := mon.ClassifyRegions(world.GeoDB()); err != nil {
			return nil, fmt.Errorf("scenario %s: classify: %w", spec.Name, err)
		}
		for _, r := range spec.Score.Regions {
			det, err := mon.DetectRegion(r)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: region %v: %w", spec.Name, r, err)
			}
			card.Signals = append(card.Signals,
				c.scoreEntity(RegionEntity(r), det.Flags, effMissing, warmup, slack))
		}
	}

	// Trinocular baseline over the identical store and ground truth: the
	// store holds measured counts, so the probe evaluates ground truth.
	probe := world.ProbeFunc()
	runner := trinocular.NewRunner(mon.Store(), space, world.Representatives, probe)
	res := runner.Run(probe)
	card.TrinocularTracked = runner.NumBlocks()
	card.TrinocularProbes = res.ProbesSent
	rounds := spec.Rounds()
	for _, asn := range spec.Score.ASes {
		det := signals.Detect(trinSeries(ASEntity(asn), world.TL, res.PerAS[asn], effMissing), trinConfig())
		card.Trinocular = append(card.Trinocular,
			c.scoreEntity(ASEntity(asn), det.Flags, effMissing, warmup, slack))
	}
	for _, r := range spec.Score.Regions {
		counts := make([]float32, rounds)
		for _, as := range spec.ASes {
			if as.Region != r {
				continue
			}
			for i, v := range res.PerAS[as.ASN] {
				counts[i] += v
			}
		}
		det := signals.Detect(trinSeries(RegionEntity(r), world.TL, counts, effMissing), trinConfig())
		card.Trinocular = append(card.Trinocular,
			c.scoreEntity(RegionEntity(r), det.Flags, effMissing, warmup, slack))
	}
	return card, nil
}

// trinConfig scores the Trinocular up-count series with the FBS-style ratio
// test alone: the baseline has no BGP feed and no monthly IPS census, so
// those signals stay disabled.
func trinConfig() signals.Config {
	return signals.Config{FBSFrac: 0.80, MinBaseline: 0.5}
}

// trinSeries wraps a Trinocular per-round up-count as an EntitySeries so the
// shared detector and scorer apply unchanged: its three columns are one view
// of counts. A nil count series (no tracked blocks for the entity) holds no
// rounds and reads zero, so it scores as a flat zero — no baseline, no flags.
func trinSeries(name string, tl *timeline.Timeline, counts []float32, effMissing []bool) *signals.EntitySeries {
	col := signals.ColumnOf(tl, counts)
	return &signals.EntitySeries{
		Name: name, TL: tl,
		BGP: col, FBS: col, IPS: col,
		IPSValidMonth: make([]bool, tl.NumMonths()),
		Missing:       effMissing,
	}
}

// roundLabel is the per-round ground-truth class during scoring.
type roundLabel uint8

const (
	labelNone roundLabel = iota
	labelBenign
	labelGrace
	labelOutage
)

// scoreEntity scores one detector's flag series for one entity against the
// scenario's truth windows. Outage rounds beat grace rounds beat benign
// rounds when windows overlap; warmup and effectively-missing rounds are
// excluded entirely.
func (c *Compiled) scoreEntity(entity string, flags []signals.Kind, effMissing []bool, warmup, slack int) EntityScore {
	spec := c.Spec
	rounds := len(flags)
	labels := make([]roundLabel, rounds)
	mark := func(from, to int, l roundLabel) {
		if from < 0 {
			from = 0
		}
		if to > rounds {
			to = rounds
		}
		for r := from; r < to; r++ {
			if labels[r] < l {
				labels[r] = l
			}
		}
	}
	type window struct{ from, to int }
	var outages []window
	for _, w := range c.Truth {
		if w.Entity != entity {
			continue
		}
		rs := windowRounds(w.From, w.To, spec.Start, spec.Interval, rounds)
		if len(rs) == 0 {
			continue
		}
		from, to := rs[0], rs[len(rs)-1]+1
		if w.Benign {
			mark(from, to, labelBenign)
			continue
		}
		outages = append(outages, window{from, to})
		mark(from, to, labelOutage)
		mark(to, to+slack, labelGrace)
	}

	score := EntityScore{Entity: entity, Windows: len(outages), MeanLatencyRounds: -1}
	scored := func(r int) bool { return r >= warmup && r < rounds && !effMissing[r] }
	for r := warmup; r < rounds; r++ {
		if !scored(r) || flags[r] == 0 {
			continue
		}
		switch labels[r] {
		case labelOutage:
			score.TruePosRounds++
		case labelGrace:
			// Detection-run tail while the baseline adapts: neutral.
		default:
			score.FalsePosRounds++
		}
	}

	latencySum := 0
	for _, w := range outages {
		for r := w.from; r < w.to+slack && r < rounds; r++ {
			if scored(r) && flags[r] != 0 {
				score.Detected++
				latencySum += r - w.from
				break
			}
		}
	}

	score.Precision = ratio(score.TruePosRounds, score.TruePosRounds+score.FalsePosRounds)
	score.Recall = ratio(score.Detected, score.Windows)
	if score.Detected > 0 {
		score.MeanLatencyRounds = round4(float64(latencySum) / float64(score.Detected))
	}
	return score
}

// ratio is n/d rounded to 4 decimals, with the empty-denominator convention
// "nothing to get wrong = perfect".
func ratio(n, d int) float64 {
	if d == 0 {
		return 1
	}
	return round4(float64(n) / float64(d))
}

func round4(x float64) float64 { return math.Round(x*10000) / 10000 }
