package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ instead of comparing")

// eventTimeRE matches an event's wall-clock stamp, the one field of an event
// body that differs between runs.
var eventTimeRE = regexp.MustCompile(`"time":"[^"]*"`)

// eventBodies fetches path's event backlog in both wire forms: the
// long-poll JSON array, then the SSE stream cut after its replay (the
// request's context is cancelled before the handler runs, so it writes the
// retained events and returns). Event times are masked.
func eventBodies(t *testing.T, h http.Handler, path string) (jsonBody, sseBody string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path+"?format=json&since=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s long-poll status %d", path, rec.Code)
	}
	jsonBody = rec.Body.String()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path+"?since=0", nil).WithContext(ctx))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s SSE status %d", path, rec.Code)
	}
	mask := func(s string) string { return eventTimeRE.ReplaceAllString(s, `"time":"-"`) }
	return mask(jsonBody), mask(rec.Body.String())
}

// TestCampaignEventsGolden pins a single-country campaign's /v1/events
// bodies, long-poll JSON and SSE, byte for byte with event times masked.
func TestCampaignEventsGolden(t *testing.T) {
	spec := &Spec{
		Countries: []CountrySpec{{Code: "UA", Name: "Ukraine"}},
		Vantages:  3,
		Rounds:    4,
		Interval:  2 * time.Hour,
		Start:     time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		Rate:      2000,
		Seed:      9,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	co, err := New(spec, Options{Registry: obs.NewRegistry(), Bus: obs.NewBus(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	jsonBody, sseBody := eventBodies(t, co.Router(), "/v1/events")
	got := []byte(jsonBody + "\n" + sseBody)

	path := filepath.Join("testdata", "events.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("/v1/events bodies differ from %s (re-run with -update after an intended change)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// quickObs runs the 4-round two-country campaign -countries UA,RO implies
// with a registry and bus attached, its transports passed through wrap.
func quickObs(t *testing.T, wrap func(country, vantage string, t scanner.Transport) scanner.Transport) (*Coordinator, *obs.Registry, *obs.Bus) {
	t.Helper()
	spec, err := Quick([]string{"UA", "RO"})
	if err != nil {
		t.Fatal(err)
	}
	spec.Rounds = 4
	reg, bus := obs.NewRegistry(), obs.NewBus(1<<14)
	co, err := New(spec, Options{Registry: reg, Bus: bus, WrapTransport: wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	if err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return co, reg, bus
}

// TestCampaignSeriesPerCountry: every scanner, signals, serve, monitor and
// per-campaign fleet series of a coordinated campaign carries its country,
// the vantages' shared series none, and the two countries' probe counters
// add up to the one pooled series the campaign exposed before its series
// were split by country (41 216 probes on this run).
func TestCampaignSeriesPerCountry(t *testing.T) {
	_, reg, _ := quickObs(t, nil)
	var text bytes.Buffer
	reg.WritePrometheus(&text)
	perCountry := []string{"scanner_", "signals_", "serve_", "monitor_", "bus_dropped_events_total",
		"fleet_steals_total", "fleet_rounds_degraded_total", "fleet_self_outages_total"}
	seen := make(map[string]bool)
	var sent uint64
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		scoped := strings.HasPrefix(line[len(name):], `{country="`)
		shared := true
		for _, p := range perCountry {
			if strings.HasPrefix(name, p) {
				seen[p], shared = true, false
			}
		}
		if scoped == shared {
			t.Errorf("%s: want a %s series", line, map[bool]string{true: "shared", false: "per-country"}[shared])
		}
		if name == "scanner_probes_sent_total" {
			var n uint64
			if err := json.Unmarshal([]byte(line[strings.LastIndexByte(line, ' ')+1:]), &n); err != nil {
				t.Fatal(err)
			}
			sent += n
		}
	}
	for _, p := range perCountry {
		if !seen[p] {
			t.Errorf("no %s series", p)
		}
	}
	if sent != 41216 {
		t.Errorf("the countries' scanner_probes_sent_total sum to %d, want the pooled 41216", sent)
	}
}

// TestServeWatermarkFollowsSeals: with nobody reading, each country's
// serve_watermark still reads the rounds its store has sealed.
func TestServeWatermarkFollowsSeals(t *testing.T) {
	co, reg, _ := quickObs(t, nil)
	wm := reg.GaugeVec("serve_watermark", "", "country")
	for _, c := range co.Countries() {
		if got := wm.With(c.Code).Value(); got != 4 {
			t.Errorf("serve_watermark{country=%q} = %d, want the 4 sealed rounds", c.Code, got)
		}
	}
}

// sharedEvents are the kinds of no one country: the state of a vantage the
// countries share.
var sharedEvents = map[string]bool{"breaker_transition": true, "vantage_poisoned": true}

// TestCampaignEventsPerCountry blacks vantage v0 out in both countries'
// worlds, so the campaign has per-country fleet events (failed shards,
// steals) and a shared one (v0's breaker opening). Each country's
// /v1/countries/{cc}/events holds its own events and the shared ones; the
// two streams share nothing else, and together they are the bus's whole
// stream.
func TestCampaignEventsPerCountry(t *testing.T) {
	dark := faults.Profile{Windows: []faults.Window{{From: time.Time{}, To: time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC), Kind: faults.Blackout}}}
	co, _, bus := quickObs(t, func(_, vantage string, tr scanner.Transport) scanner.Transport {
		if vantage != "v0" {
			return tr
		}
		return faults.NewTransport(tr, nil, dark)
	})
	events := func(h http.Handler, path string) []obs.Event {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path+"?format=json&since=0", nil))
		var evs []obs.Event
		if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return evs
	}
	all := events(obs.EventsHandler(bus), "/events")
	if len(all) == 0 || all[0].Seq != 1 {
		t.Fatal("the bus ring lost the campaign's first events")
	}
	union := make(map[uint64]int)
	kinds := make(map[string]int)
	for _, cc := range []string{"UA", "RO"} {
		for _, ev := range events(co.Router(), "/v1/countries/"+cc+"/events") {
			union[ev.Seq]++
			kinds[ev.Kind]++
			if ev.Country != cc && !(ev.Country == "" && sharedEvents[ev.Kind]) {
				t.Errorf("%s stream: %s event %d of country %q", cc, ev.Kind, ev.Seq, ev.Country)
			}
			if _, ok := ev.Fields.(map[string]any)["campaign"]; ok != sharedEvents[ev.Kind] {
				t.Errorf("%s stream: %s event %d: campaign field %v", cc, ev.Kind, ev.Seq, ev.Fields)
			}
		}
	}
	for _, ev := range all {
		want := 1
		if ev.Country == "" {
			want = 2
		}
		if union[ev.Seq] != want {
			t.Errorf("%s event %d (country %q) is in %d country streams, want %d", ev.Kind, ev.Seq, ev.Country, union[ev.Seq], want)
		}
		delete(union, ev.Seq)
	}
	if len(union) != 0 {
		t.Errorf("%d country-stream events are not on the bus", len(union))
	}
	for _, kind := range []string{"shard_failed", "shard_steal", "breaker_transition", "round_scanned"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s event: the campaign is too tame to tell the streams apart", kind)
		}
	}
}
