package countrymon

import (
	"context"
	"errors"
	"time"

	"countrymon/internal/obs"
)

// RunConfig configures one Run or Step invocation.
type RunConfig struct {
	// PreRound, when non-nil, runs before each round is scanned — the place
	// to apply BGP snapshots or decide to MarkMissing. Returning an error
	// aborts the campaign (after a checkpoint, if one is configured).
	PreRound func(round int) error
}

// Run drives the campaign to completion: every remaining round is handled by
// Step in sequence, and ctx cancellation stops the campaign at the next round
// boundary — after writing a final checkpoint when CheckpointPath is set, so
// the campaign resumes exactly where it stopped. It returns nil on
// completion, ctx's error on cancellation, or the first hard
// scan/checkpoint/PreRound error. Each round's outcome and each checkpoint
// is published on Options.Bus; a caller that wants each round's Stats loops
// over Step itself.
func (m *Monitor) Run(ctx context.Context, rc RunConfig) error {
	for m.NextRound() {
		if _, err := m.Step(ctx, rc); err != nil {
			return err
		}
	}
	return nil
}

// Step handles exactly one round — ctx check, PreRound, then the scan unless
// PreRound marked the round missing — and returns the round's scan
// statistics (zero for a round recorded missing without a scan). It is the
// unit Run loops over; campaign coordinators (internal/campaign) call it
// directly to interleave rounds of several monitors on one goroutine. A ctx
// cancellation or PreRound error checkpoints before returning.
func (m *Monitor) Step(ctx context.Context, rc RunConfig) (Stats, error) {
	if ctx.Err() != nil {
		return Stats{}, m.checkpointBeforeReturn(ctx.Err())
	}
	round := m.round
	if rc.PreRound != nil {
		if err := rc.PreRound(round); err != nil {
			return Stats{}, m.checkpointBeforeReturn(err)
		}
		if m.round > round {
			// PreRound handled the round itself (MarkMissing): scanning now
			// would take the next round without its PreRound.
			return Stats{}, nil
		}
	}
	st, err := m.scan(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return Stats{}, m.checkpointBeforeReturn(ctx.Err())
		}
		return Stats{}, err
	}
	return st, nil
}

// checkpointBeforeReturn persists progress before surfacing cause, so an
// interrupted campaign loses nothing that was already measured. Without a
// CheckpointPath it returns cause untouched.
func (m *Monitor) checkpointBeforeReturn(cause error) error {
	if m.opts.CheckpointPath == "" {
		return cause
	}
	if err := m.Checkpoint(); err != nil {
		return errors.Join(cause, err)
	}
	return cause
}

// CampaignStats returns the accumulated scan statistics of every round
// handled so far (scanned and salvaged rounds; rounds marked missing add
// nothing).
func (m *Monitor) CampaignStats() Stats { return m.campaign }

// emitDetection reports a detection run on the bus.
func (m *Monitor) emitDetection(entity string, d *Detection) {
	m.bus.Emit("detection", func() map[string]any {
		return map[string]any{
			"entity": entity, "outages": len(d.Outages),
			"flagged_rounds": d.TotalRounds(),
		}
	})
}

// monMetrics are the Monitor's own instruments (the scanner's live inside
// scanner.Metrics). Each carries the monitored country, so the Monitors of a
// coordinated campaign keep apart on one registry. All fields are nil —
// inert — without a registry.
type monMetrics struct {
	roundsScanned  *obs.Counter   // monitor_rounds_total{country,outcome=scanned}
	roundsSalvaged *obs.Counter   // monitor_rounds_total{country,outcome=salvaged}
	roundsMissing  *obs.Counter   // monitor_rounds_total{country,outcome=missing}
	roundDur       *obs.Histogram // monitor_round_duration_seconds{country}
	coverage       *obs.Histogram // monitor_round_coverage{country}
	ckptTotal      *obs.Counter   // monitor_checkpoint_total{country}
	ckptDur        *obs.Histogram // monitor_checkpoint_seconds{country}
	lastRound      *obs.Gauge     // monitor_last_round{country}
	resumeRound    *obs.Gauge     // monitor_resume_round{country}
}

func newMonMetrics(reg *obs.Registry, country string) *monMetrics {
	rounds := reg.CounterVec("monitor_rounds_total",
		"Campaign rounds handled, by country and outcome.", "country", "outcome")
	return &monMetrics{
		roundsScanned:  rounds.With(country, "scanned"),
		roundsSalvaged: rounds.With(country, "salvaged"),
		roundsMissing:  rounds.With(country, "missing"),
		roundDur: reg.HistogramVec("monitor_round_duration_seconds",
			"Scan-round duration in campaign time.", 0, "country").With(country),
		coverage: reg.HistogramVec("monitor_round_coverage",
			"Fraction of targets probed per round.", 0, "country").With(country),
		ckptTotal: reg.CounterVec("monitor_checkpoint_total",
			"Checkpoint files written, by country.", "country").With(country),
		ckptDur: reg.HistogramVec("monitor_checkpoint_seconds",
			"Checkpoint write latency (wall clock).", 0, "country").With(country),
		lastRound: reg.GaugeVec("monitor_last_round",
			"Most recently handled round index, by country.", "country").With(country),
		resumeRound: reg.GaugeVec("monitor_resume_round",
			"Round the campaign resumed from (0 for fresh campaigns), by country.", "country").With(country),
	}
}

// roundAt formats a round's scheduled time for events.
func roundAt(at time.Time) string { return at.UTC().Format(time.RFC3339) }
