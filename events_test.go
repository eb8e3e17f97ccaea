package countrymon

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"countrymon/internal/fleet"
	"countrymon/internal/obs"
	"countrymon/internal/portal"
	"countrymon/internal/scanner"
)

// TestPayloadsEncodeAsTheirMaps holds every event payload type to the map
// its emit site built before payloads were typed: the payload's JSON must be
// the bytes json.Marshal writes for that map, built here as the site built
// it (times formatted as UTC RFC 3339, errors as their text), over seeded
// values — strings encoding/json escapes or repairs (HTML characters, quote
// and backslash, U+2028 and U+2029, invalid UTF-8), integer extremes,
// coverages that print in each float form, times in zones other than UTC,
// and a shard_failed with and without a RoundData and an error.
func TestPayloadsEncodeAsTheirMaps(t *testing.T) {
	var (
		strs   = []string{"", "v0", "<b>&amp;</b>", `say "hi" \ bye`, "line\u2028sep\u2029end", "bad\xff\xc3utf8"}
		ints   = []int{0, 1, -1, 3, math.MaxInt, math.MinInt}
		uints  = []uint64{0, 1, 4352, math.MaxUint64}
		floats = []float64{0, 1, 1.0 / 3, 1e-7, 0.875}
		times  = []time.Time{
			time.Date(2022, 3, 2, 23, 59, 59, 999999999, time.FixedZone("EET", 2*3600)),
			time.Date(1969, 12, 31, 20, 0, 0, 0, time.FixedZone("", -5*3600-30*60)),
			time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		}
	)
	for i := 0; i < 2*3*4*5; i++ {
		s, s2 := strs[i%len(strs)], strs[(i+1)%len(strs)]
		n, n2 := ints[i%len(ints)], ints[(i+2)%len(ints)]
		u, u2 := uints[i%len(uints)], uints[(i+1)%len(uints)]
		f, at := floats[i%len(floats)], times[i%len(times)]
		var err error
		if i%2 == 1 {
			err = errors.New(s2)
		}
		scanned := i/2%2 == 1
		// shardFailed is the map shard_failed's site built: a scan's
		// RoundData keys when it had one, the error's text when there was one.
		shardFailed := map[string]any{"round": n, "shard": n2, "vantage": s}
		if scanned {
			shardFailed["coverage"], shardFailed["send_errors"], shardFailed["recv_dead"] = f, u, i%3 == 0
		}
		if err != nil {
			shardFailed["error"] = err.Error()
		}
		for _, c := range []struct {
			kind    string
			payload any
			oracle  map[string]any
		}{
			{"round_start", RoundStartEvent{Round: n, At: obs.Time(at)},
				map[string]any{"round": n, "at": at.UTC().Format(time.RFC3339)}},
			{"round_scanned", RoundScannedEvent{Round: n, Sent: u, Valid: u2, Coverage: f},
				map[string]any{"round": n, "sent": u, "valid": u2, "coverage": f}},
			{"round_missing", RoundMissingEvent{Round: n, Reason: s},
				map[string]any{"round": n, "reason": s}},
			{"campaign_complete", CampaignCompleteEvent{Rounds: n},
				map[string]any{"rounds": n}},
			{"checkpoint", CheckpointEvent{Round: n, Path: s},
				map[string]any{"round": n, "path": s}},
			{"resume", ResumeEvent{Round: n, Path: s},
				map[string]any{"round": n, "path": s}},
			{"detection", DetectionEvent{Entity: s, Outages: n, FlaggedRounds: n2},
				map[string]any{"entity": s, "outages": n, "flagged_rounds": n2}},
			{"retry", scanner.RetryEvent{Shard: n, Retries: u, Abandoned: u2, BackoffMs: int64(n2), Error: obs.Error{Err: errors.New(s2)}},
				map[string]any{"shard": n, "retries": u, "abandoned": u2, "backoff_ms": int64(n2), "error": s2}},
			{"shard_failed", fleet.ShardFailedEvent{Round: n, Shard: n2, Vantage: s, Error: err,
				Scanned: scanned, Coverage: f, SendErrors: u, RecvDead: i%3 == 0}, shardFailed},
			{"shard_steal", fleet.ShardStealEvent{Round: n, Shard: n2, From: s, To: s2},
				map[string]any{"round": n, "shard": n2, "from": s, "to": s2}},
			{"fleet_self_outage", fleet.FleetSelfOutageEvent{Round: n, Eligible: n2},
				map[string]any{"round": n, "eligible": n2}},
			{"fleet_fusion", fleet.FleetFusionEvent{Round: n, Suspects: n2, Alive: n, Down: -n2, Held: 7},
				map[string]any{"round": n, "suspects": n2, "alive": n, "down": -n2, "held": 7}},
			{"vantage_poisoned", fleet.VantagePoisonedEvent{Round: n, Vantage: s, Campaign: s2, Overridden: n2},
				map[string]any{"round": n, "vantage": s, "campaign": s2, "overridden": n2}},
			{"breaker_transition", fleet.BreakerTransitionEvent{Round: n, Vantage: s, Campaign: s2, To: "half_open", Quarantine: n2},
				map[string]any{"round": n, "vantage": s, "campaign": s2, "to": "half_open", "quarantine": n2}},
			{"opt_out", portal.OptOutEvent{Prefix: s},
				map[string]any{"prefix": s}},
		} {
			got, gerr := json.Marshal(c.payload)
			want, werr := json.Marshal(c.oracle)
			if gerr != nil || werr != nil {
				t.Fatalf("case %d %s: %v, oracle %v", i, c.kind, gerr, werr)
			}
			if string(got) != string(want) {
				t.Errorf("case %d %s payload encodes\n  %s\nits map\n  %s", i, c.kind, got, want)
			}
		}
	}
}
