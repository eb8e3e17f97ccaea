package countrymon

import "countrymon/internal/obs"

// The payloads a Monitor publishes on Options.Bus, one struct per event
// kind. Each is boxed once, when a bus is attached, and formatted only when
// the event is encoded; its json tags list its keys in sorted order, so it
// encodes as the map of those keys would. README's event table holds each
// kind's keys (TestEventCatalogue).

// RoundStartEvent is a round_start event: a round's scan begins, at its
// scheduled time.
type RoundStartEvent struct {
	At    obs.Time `json:"at"`
	Round int      `json:"round"`
}

// RoundScannedEvent is a round_scanned event, a round scanned in full, or a
// round_salvaged one, a partial round kept at its coverage.
type RoundScannedEvent struct {
	Coverage float64 `json:"coverage"`
	Round    int     `json:"round"`
	Sent     uint64  `json:"sent"`
	Valid    uint64  `json:"valid"`
}

// RoundMissingEvent is a round_missing event: a round recorded missing
// because no vantage produced usable data (Reason "fleet_self_outage").
type RoundMissingEvent struct {
	Reason string `json:"reason"`
	Round  int    `json:"round"`
}

// CampaignCompleteEvent is a campaign_complete event: the timeline of
// Rounds rounds is exhausted.
type CampaignCompleteEvent struct {
	Rounds int `json:"rounds"`
}

// CheckpointEvent is a checkpoint event: the store written to Path with
// Round rounds handled.
type CheckpointEvent struct {
	Path  string `json:"path"`
	Round int    `json:"round"`
}

// ResumeEvent is a resume event: a campaign resumed at Round from the
// checkpoint or journal at Path.
type ResumeEvent struct {
	Path  string `json:"path"`
	Round int    `json:"round"`
}

// DetectionEvent is a detection event: a detection run over Entity.
type DetectionEvent struct {
	Entity        string `json:"entity"`
	FlaggedRounds int    `json:"flagged_rounds"`
	Outages       int    `json:"outages"`
}
