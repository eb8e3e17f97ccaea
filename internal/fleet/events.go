package fleet

import (
	"encoding/json"

	"countrymon/internal/obs"
)

// The payloads a fleet publishes, one struct per event kind: a campaign's
// on its country's scope of Config.Bus, the shared vantages'
// (BreakerTransitionEvent, VantagePoisonedEvent) unscoped, naming the
// Campaign whose round saw them. Each is boxed once, when a bus is
// attached; its json tags list its keys in sorted order, so it encodes as
// the map of those keys would.

// ShardFailedEvent is a shard_failed event: Vantage's scan of Shard was
// given up. Scanned says the scan came back with a RoundData — a salvaged
// partial round, which is what a blackout's is — whose Coverage, SendErrors
// and RecvDead it carries. Error is the scan's error or, when it had none,
// that round's last transport error.
type ShardFailedEvent struct {
	Coverage   float64 `json:"coverage"`
	Error      error   `json:"error,omitempty"`
	RecvDead   bool    `json:"recv_dead"`
	Round      int     `json:"round"`
	SendErrors uint64  `json:"send_errors"`
	Shard      int     `json:"shard"`
	Vantage    string  `json:"vantage"`
	Scanned    bool    `json:"-"`
}

// MarshalJSON writes coverage, recv_dead and send_errors only when the scan
// came back with a RoundData, and error only when there is one: those keys
// fall between the fixed ones in sorted order, so no struct tag can leave
// them out.
func (e ShardFailedEvent) MarshalJSON() ([]byte, error) {
	w := struct {
		Coverage   *float64   `json:"coverage,omitempty"`
		Error      *obs.Error `json:"error,omitempty"`
		RecvDead   *bool      `json:"recv_dead,omitempty"`
		Round      int        `json:"round"`
		SendErrors *uint64    `json:"send_errors,omitempty"`
		Shard      int        `json:"shard"`
		Vantage    string     `json:"vantage"`
	}{Round: e.Round, Shard: e.Shard, Vantage: e.Vantage}
	if e.Scanned {
		w.Coverage, w.RecvDead, w.SendErrors = &e.Coverage, &e.RecvDead, &e.SendErrors
	}
	if e.Error != nil {
		w.Error = &obs.Error{Err: e.Error}
	}
	return json.Marshal(w)
}

// ShardStealEvent is a shard_steal event: vantage To re-scans the Shard
// that vantage From failed.
type ShardStealEvent struct {
	From  string `json:"from"`
	Round int    `json:"round"`
	Shard int    `json:"shard"`
	To    string `json:"to"`
}

// FleetSelfOutageEvent is a fleet_self_outage event: none of the Eligible
// vantages produced usable data.
type FleetSelfOutageEvent struct {
	Eligible int `json:"eligible"`
	Round    int `json:"round"`
}

// FleetFusionEvent is a fleet_fusion event: a round's Suspects suspect
// blocks fused to Alive, Down and Held.
type FleetFusionEvent struct {
	Alive    int `json:"alive"`
	Down     int `json:"down"`
	Held     int `json:"held"`
	Round    int `json:"round"`
	Suspects int `json:"suspects"`
}

// VantagePoisonedEvent is a vantage_poisoned event: corroboration
// overrode Overridden of Vantage's dark samples in Campaign's round.
type VantagePoisonedEvent struct {
	Campaign   string `json:"campaign"`
	Overridden int    `json:"overridden"`
	Round      int    `json:"round"`
	Vantage    string `json:"vantage"`
}

// BreakerTransitionEvent is a breaker_transition event: Vantage's circuit
// breaker went to state To in Campaign's round, its quarantine Quarantine
// rounds long.
type BreakerTransitionEvent struct {
	Campaign   string `json:"campaign"`
	Quarantine int    `json:"quarantine"`
	Round      int    `json:"round"`
	To         string `json:"to"`
	Vantage    string `json:"vantage"`
}
