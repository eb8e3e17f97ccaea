package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
)

// TestFaultedCampaignGolden pins a two-country campaign on three shared
// vantages whose every view of the wire drops and fails probes at random,
// with v0 blacked out over rounds 3–6 (long enough to quarantine it, so
// another vantage scans two shards of a round) and RO's view of v1 stalled
// over rounds 8–9: each country's store (its file bytes, hashed) and fleet
// report, and the fault counters summed over every wrapper the campaign
// built. The probabilities draw from each wrapper's seeded RNG on every
// packet, so the stores hold which probes each scan lost: a scan whose
// wrapper did not start from its profile's seed moves them.
func TestFaultedCampaignGolden(t *testing.T) {
	co, wrapped := runFaulted(t, Options{}, -1)

	var b strings.Builder
	for _, c := range co.Countries() {
		rep := c.FleetReport()
		fmt.Fprintf(&b, "%s store %x\n", c.Code, sha256.Sum256(storeBytes(t, c.Monitor)))
		fmt.Fprintf(&b, "%s fleet quarantined=%v degraded=%d self_outages=%d steals=%d suspects=%d alive=%d down=%d held=%d\n",
			c.Code, rep.Quarantined, rep.DegradedRounds, rep.SelfOutages, rep.Steals,
			rep.Suspects, rep.FusedAlive, rep.FusedDown, rep.FusedHeld)
	}
	var sum faults.Counters
	for _, ftr := range wrapped {
		c := ftr.Counters()
		sum.SendErrors += c.SendErrors
		sum.Drops += c.Drops
		sum.RecvErrors += c.RecvErrors
		sum.Truncated += c.Truncated
		sum.Blackouts += c.Blackouts
	}
	fmt.Fprintf(&b, "faults send_errors=%d drops=%d recv_errors=%d truncated=%d blackouts=%d\n",
		sum.SendErrors, sum.Drops, sum.RecvErrors, sum.Truncated, sum.Blackouts)
	if sum.SendErrors == 0 || sum.Drops == 0 || sum.Blackouts == 0 {
		t.Fatalf("too tame to pin the fault stream: %+v", sum)
	}
	got := b.String()

	path := filepath.Join("testdata", "faulted.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("faulted campaign differs from %s (re-run with -update after an intended change)\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// runFaulted runs the faulted campaign TestFaultedCampaignGolden pins with
// opts' registry and bus, every vantage of RO's wire also blacked out over
// round roDark (none when negative), and returns it with every fault wrapper
// it built.
func runFaulted(t *testing.T, opts Options, roDark int) (*Coordinator, []*faults.Transport) {
	t.Helper()
	spec := testSpec(t, 12)
	window := func(from, to int, kind faults.Kind) []faults.Window {
		return []faults.Window{{
			From: spec.Start.Add(time.Duration(from)*spec.Interval - 30*time.Minute),
			To:   spec.Start.Add(time.Duration(to)*spec.Interval + 90*time.Minute),
			Kind: kind,
		}}
	}
	var (
		mu      sync.Mutex
		wrapped []*faults.Transport
	)
	opts.WrapTransport = func(country, vantage string, tr scanner.Transport) scanner.Transport {
		prof := faults.Profile{Seed: uint64(country[0])<<8 | uint64(vantage[1]), SendErrorProb: 0.01, DropProb: 0.02}
		switch {
		case vantage == "v0":
			prof.Windows = window(3, 6, faults.Blackout)
		case country == "RO" && vantage == "v1":
			prof.Windows = window(8, 9, faults.Stall)
		}
		if country == "RO" && roDark >= 0 {
			from := spec.Start.Add(time.Duration(roDark) * spec.Interval)
			prof.Windows = append(prof.Windows, faults.Window{From: from, To: from.Add(spec.Interval), Kind: faults.Blackout})
		}
		ftr := faults.NewTransport(tr, nil, prof)
		mu.Lock()
		wrapped = append(wrapped, ftr)
		mu.Unlock()
		return ftr
	}
	co, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	if err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return co, wrapped
}

// eventSeqRE matches an event's sequence number in both wire forms: the
// JSON "seq" and the SSE "id:" line.
var eventSeqRE = regexp.MustCompile(`"seq":[0-9]+|id: [0-9]+`)

// TestFaultedEventsGolden pins the events of TestFaultedCampaignGolden's
// campaign, with RO's wire dark over round 10 (a fleet self-outage, which
// opens every shared breaker: round 11 is one for both countries), as
// /v1/events (UA's, the
// default country) and /v1/countries/RO/events write them in both wire
// forms. One field is masked: "time", the wall clock at publication. The
// shards of a round scan concurrently and each scan publishes its own retry
// events, so the order of those events, and with it every sequence number,
// depends on scheduling: each body is pinned as its events, one a line (an
// SSE event's event, id and data lines joined by " | ") with "seq" and the
// SSE id masked too, sorted, and each distinct line once after its count.
func TestFaultedEventsGolden(t *testing.T) {
	bus := obs.NewBus(1 << 14)
	co, _ := runFaulted(t, Options{Registry: obs.NewRegistry(), Bus: bus}, 10)
	all := bus.Since(0)
	if len(all) == 0 || all[0].Seq != 1 {
		t.Fatal("the bus ring lost the campaign's first events")
	}
	kinds := make(map[string]int)
	for _, ev := range all {
		kinds[ev.Kind]++
	}
	for _, kind := range []string{"retry", "shard_failed", "shard_steal", "breaker_transition"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s event: the campaign is too tame to pin its events", kind)
		}
	}
	if kinds["round_salvaged"]+kinds["round_missing"] == 0 {
		t.Error("no round_salvaged or round_missing event: the campaign is too tame to pin its events")
	}

	var b strings.Builder
	for _, path := range []string{"/v1/events", "/v1/countries/RO/events"} {
		jsonBody, sseBody := eventBodies(t, co.Router(), path)
		var evs []json.RawMessage
		if err := json.Unmarshal([]byte(jsonBody), &evs); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		lines := make([]string, len(evs))
		for i, ev := range evs {
			lines[i] = string(ev)
		}
		writeSorted(&b, path+"?format=json", lines)
		writeSorted(&b, path, strings.Split(strings.ReplaceAll(strings.TrimSuffix(sseBody, "\n\n"), "\n", " | "), " |  | "))
	}
	got := b.String()

	path := filepath.Join("testdata", "faulted_events.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("faulted campaign's events differ from %s (re-run with -update after an intended change)\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// writeSorted writes a header naming body, then body's events with their
// sequence numbers masked, sorted: each distinct one once, after its count.
func writeSorted(b *strings.Builder, body string, events []string) {
	for i, ev := range events {
		events[i] = eventSeqRE.ReplaceAllStringFunc(ev, func(s string) string {
			if strings.HasPrefix(s, "id:") {
				return "id: -"
			}
			return `"seq":-`
		})
	}
	sort.Strings(events)
	fmt.Fprintf(b, "# %s: %d events\n", body, len(events))
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j] == events[i] {
			j++
		}
		fmt.Fprintf(b, "%d\t%s\n", j-i, events[i])
		i = j
	}
}
