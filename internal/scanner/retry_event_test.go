package scanner_test

import (
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

var faultedStart = time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC)

// blackoutProfile fails every send for as long as any test here scans.
var blackoutProfile = faults.Profile{Windows: []faults.Window{{
	From: faultedStart.Add(-time.Hour), To: faultedStart.Add(1000 * time.Hour), Kind: faults.Blackout,
}}}

// faultedScanner returns a function that scans a /19 (8 192 targets, 128
// batches when nothing aborts it) through a faults transport with prof,
// events to bus, and the histogram that counts the batches it assembled.
func faultedScanner(t *testing.T, prof faults.Profile, bus *obs.Bus) (func() *scanner.RoundData, *obs.Histogram) {
	t.Helper()
	ts := newTargets(t, "91.198.0.0/19")
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(40*time.Millisecond), faultedStart)
	tr := faults.NewTransport(net, nil, prof)
	m := scanner.NewMetrics(obs.NewRegistry())
	epoch := uint32(0)
	return func() *scanner.RoundData {
		epoch++
		rd, err := scanner.New(tr, scanner.Config{
			Rate: -1, Seed: 42, Epoch: epoch, Clock: net, Cooldown: time.Second, Metrics: m, Events: bus,
		}).Run(ts)
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}, m.BatchFill
}

// checkRetryEvents holds the retry events on bus to the one scan that
// published them: at most one per batch, and their counts sum to the scan's
// own.
func checkRetryEvents(t *testing.T, bus *obs.Bus, rd *scanner.RoundData, batches uint64) {
	t.Helper()
	var events, retries, abandoned uint64
	for _, ev := range bus.Since(0) {
		if ev.Kind != "retry" {
			continue
		}
		events++
		p, _ := ev.Fields.(scanner.RetryEvent)
		retries += p.Retries
		abandoned += p.Abandoned
	}
	if events == 0 || events > batches {
		t.Errorf("%d retry events over %d batches, want one per batch that had a failed send", events, batches)
	}
	if retries != rd.Stats.Retries || abandoned != rd.Stats.SendErrors {
		t.Errorf("events sum to %d retries, %d abandoned; Stats has %d, %d",
			retries, abandoned, rd.Stats.Retries, rd.Stats.SendErrors)
	}
}

// TestRetryEventPerBatch: a blacked-out shard fails 820 addresses × 4 send
// attempts before the error budget stops it. That is 13 batches, so 13 events
// and an allocation bill linear in batches (the round's own objects, within
// the 16 TestSendFailuresAllocateNothingWithoutEvents allows, plus one per
// event: its boxed payload) — not in attempts.
func TestRetryEventPerBatch(t *testing.T) {
	bus := obs.NewBus(1 << 13) // room for an event per attempt, so a miscount is reported as one
	scan, fill := faultedScanner(t, blackoutProfile, bus)
	rd := scan()
	if rd.Stats.SendErrors != 820 || rd.Stats.Retries != 3*820 || rd.Stats.Sent != 0 || !rd.Partial {
		t.Fatalf("blackout scan: %+v partial=%v; want 820 abandoned after 2 460 retries", rd.Stats, rd.Partial)
	}
	batches := fill.Snapshot().Count
	checkRetryEvents(t, bus, rd, batches)
	ev, _ := bus.Since(0)[0].Fields.(scanner.RetryEvent)
	if ev.Shard != 0 || ev.Retries != 3*64 || ev.Abandoned != 64 || ev.BackoffMs < 4 || ev.Error.Err != rd.Err {
		t.Errorf("first batch's event %+v; want shard 0, 192 retries, 64 abandoned, a third backoff's sleep and %q", ev, rd.Err)
	}

	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	if allocs, budget := testing.AllocsPerRun(10, func() { scan() }), float64(16+batches); allocs > budget {
		t.Errorf("a blacked-out scan of %d batches allocates %.0f objects, budget %.0f", batches, allocs, budget)
	}
}

// TestRetryEventSumsWhenRetriesSucceed: with one send in five failing at
// random most retries get through mid-batch, a few probes are abandoned, the
// scan completes — and the events still account for every one of both.
func TestRetryEventSumsWhenRetriesSucceed(t *testing.T) {
	bus := obs.NewBus(1 << 13)
	scan, fill := faultedScanner(t, faults.Profile{Seed: 7, SendErrorProb: 0.2}, bus)
	rd := scan()
	if rd.Stats.Retries == 0 || rd.Stats.SendErrors == 0 || rd.Stats.Sent+rd.Stats.SendErrors != 8192 {
		t.Fatalf("the profile should retry, abandon a few and finish: %+v", rd.Stats)
	}
	checkRetryEvents(t, bus, rd, fill.Snapshot().Count)
}

// TestSendFailuresAllocateNothingWithoutEvents: with no bus attached the
// failure path costs no allocation at all — 2 460 retries and 820 abandoned
// probes fit in what the round's own two objects leave of a budget of 16.
func TestSendFailuresAllocateNothingWithoutEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	scan, _ := faultedScanner(t, blackoutProfile, nil)
	if rd := scan(); rd.Stats.Retries != 3*820 {
		t.Fatalf("blackout scan retried %d times, want 2 460", rd.Stats.Retries)
	}
	if allocs := testing.AllocsPerRun(10, func() { scan() }); allocs > 16 {
		t.Errorf("a blacked-out scan with no bus allocates %.0f objects, budget 16", allocs)
	}
}
