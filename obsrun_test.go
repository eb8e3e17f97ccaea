package countrymon

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"countrymon/internal/fleet"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// smallOpts is a tiny fast campaign over one /24.
func smallOpts(t *testing.T, rounds int) Options {
	t.Helper()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), outageResponder(5, start, start), start)
	return Options{
		Transport: net,
		Targets:   []Prefix{netmodel.MustParsePrefix("10.0.0.0/24")},
		Start:     start, Rounds: rounds, Interval: time.Hour, Seed: 1,
	}
}

func TestTypedErrors(t *testing.T) {
	t.Run("campaign complete", func(t *testing.T) {
		mon, err := New(smallOpts(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mon.ScanRound(); err != nil {
			t.Fatal(err)
		}
		if _, err := mon.ScanRound(); !errors.Is(err, ErrCampaignComplete) {
			t.Errorf("ScanRound past end: %v, want ErrCampaignComplete", err)
		}
	})

	t.Run("no checkpoint", func(t *testing.T) {
		mon, err := New(smallOpts(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Checkpoint(); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("Checkpoint without path: %v, want ErrNoCheckpoint", err)
		}
	})

	t.Run("resume mismatch round-trip", func(t *testing.T) {
		dir := t.TempDir()
		opts, _ := killResumeOpts(t, 30, dir+"/a.cmds")
		mon, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		runRounds(t, mon, 12)

		// Timeline mismatch: the error must carry both sides.
		bad, _ := killResumeOpts(t, 35, "")
		bad.ResumeFrom = dir + "/a.cmds"
		_, err = New(bad)
		var mm *ResumeMismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("timeline mismatch: %v, want *ResumeMismatchError", err)
		}
		if mm.Path != dir+"/a.cmds" {
			t.Errorf("Path = %q", mm.Path)
		}
		if mm.WantTimeline.Rounds != 35 || mm.GotTimeline.Rounds != 30 {
			t.Errorf("timelines want/got = %d/%d rounds", mm.WantTimeline.Rounds, mm.GotTimeline.Rounds)
		}
		if mm.WantTimeline.Equal(mm.GotTimeline) {
			t.Error("mismatched timelines compare Equal")
		}
		if s := mm.Error(); !strings.Contains(s, "timeline") {
			t.Errorf("Error() = %q, want it to name the timeline conflict", s)
		}

		// Target mismatch: same shape, different blocks.
		bad2, _ := killResumeOpts(t, 30, "")
		bad2.ResumeFrom = dir + "/a.cmds"
		bad2.Targets = []Prefix{netmodel.MustParsePrefix("10.0.0.0/23")}
		_, err = New(bad2)
		mm = nil
		if !errors.As(err, &mm) {
			t.Fatalf("target mismatch: %v, want *ResumeMismatchError", err)
		}
		if mm.FirstDiff < 0 {
			t.Errorf("FirstDiff = %d, want the first conflicting block index", mm.FirstDiff)
		}
		if mm.WantBlock == mm.GotBlock {
			t.Errorf("Want/GotBlock both %v", mm.WantBlock)
		}
		if s := mm.Error(); !strings.Contains(s, "block") {
			t.Errorf("Error() = %q, want it to name the block conflict", s)
		}

		// A matching campaign still resumes cleanly.
		good, _ := killResumeOpts(t, 30, "")
		good.ResumeFrom = dir + "/a.cmds"
		if _, err := New(good); err != nil {
			t.Errorf("matching resume failed: %v", err)
		}
	})
}

// TestRunCancelWritesCheckpoint cancels a campaign's Step loop mid-campaign
// and requires the final checkpoint to be on disk — current through the last
// handled round — by the time Step returns.
func TestRunCancelWritesCheckpoint(t *testing.T) {
	const rounds = 40
	dir := t.TempDir()
	ckpt := dir + "/c.cmds"
	opts, _ := killResumeOpts(t, rounds, ckpt)
	// A cadence the cancellation round never hits, so the final write can
	// only come from Run's shutdown path.
	opts.CheckpointEvery = 1000
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rc := RunConfig{
		PreRound: func(round int) error {
			for _, blk := range mon.Store().Blocks() {
				mon.SetRouted(blk, round, true, 25482)
			}
			return nil
		},
	}
	var seen []int
	for mon.NextRound() {
		round := mon.Round()
		if _, err = mon.Step(ctx, rc); err != nil {
			break
		}
		seen = append(seen, round)
		if round == 14 {
			cancel()
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Step = %v, want context.Canceled", err)
	}
	if len(seen) == 0 || seen[len(seen)-1] != 14 {
		t.Fatalf("rounds handled: %v, want to stop right after 14", seen)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after cancelled Step: %v", err)
	}

	// The checkpoint resumes exactly where the campaign stopped.
	res, _ := killResumeOpts(t, rounds, "")
	res.ResumeFrom = ckpt
	mon2, err := New(res)
	if err != nil {
		t.Fatal(err)
	}
	if mon2.Round() != 15 {
		t.Fatalf("resumed at round %d, want 15", mon2.Round())
	}
}

// TestRunCompletes drives a campaign end to end through Step, checks that
// every round and checkpoint is reported (in Step's return and on the bus)
// and the completion contract.
func TestRunCompletes(t *testing.T) {
	const rounds = 5
	dir := t.TempDir()
	opts := smallOpts(t, rounds)
	opts.CheckpointPath = dir + "/c.cmds"
	opts.CheckpointEvery = 2
	opts.Bus = obs.NewBus(0)
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for mon.NextRound() {
		round := mon.Round()
		if _, err := mon.Step(context.Background(), RunConfig{}); err != nil {
			t.Fatal(err)
		}
		got = append(got, round)
	}
	events := map[string]int{}
	for _, ev := range opts.Bus.Since(0) {
		events[ev.Kind]++
	}
	ckpts := events["checkpoint"]
	if len(got) != rounds {
		t.Fatalf("Step handled %v, want %d rounds", got, rounds)
	}
	if ckpts == 0 {
		t.Error("no checkpoint event")
	}
	if events["round_scanned"] != rounds {
		t.Errorf("round_scanned events = %d, want %d", events["round_scanned"], rounds)
	}
	if events["campaign_complete"] != 1 {
		t.Errorf("campaign_complete events = %d, want 1", events["campaign_complete"])
	}
	// Finished campaign: Run is a no-op, ScanRound refuses.
	if err := mon.Run(context.Background(), RunConfig{}); err != nil {
		t.Fatalf("Run on finished campaign: %v", err)
	}
	if _, err := mon.ScanRound(); !errors.Is(err, ErrCampaignComplete) {
		t.Fatalf("ScanRound after Run: %v", err)
	}
}

// metricValue digs one sample out of the /metrics?format=json export:
// plain counters/gauges by name, labeled families by name plus one
// label=value selector.
func metricValue(t *testing.T, doc map[string]json.RawMessage, name string, labels map[string]string) uint64 {
	t.Helper()
	raw, ok := doc[name]
	if !ok {
		t.Fatalf("metric %s missing from export", name)
	}
	var m struct {
		Value  *uint64 `json:"value"`
		Gauge  *int64  `json:"gauge"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Value  uint64            `json:"value"`
			Gauge  int64             `json:"gauge"`
		} `json:"series"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	if labels == nil {
		if m.Value != nil {
			return *m.Value
		}
		if m.Gauge != nil {
			return uint64(*m.Gauge)
		}
		t.Fatalf("metric %s has no scalar value", name)
	}
	for _, s := range m.Series {
		if reflect.DeepEqual(s.Labels, labels) {
			return s.Value + uint64(s.Gauge) // a series carries one of the two
		}
	}
	t.Fatalf("metric %s has no series %v", name, labels)
	return 0
}

// TestMetricsMatchStats is the acceptance check: a campaign run with a live
// registry + bus must export per-round counts on /metrics and /events that
// match the end-of-run CampaignStats exactly.
func TestMetricsMatchStats(t *testing.T) {
	const rounds = 8
	opts := smallOpts(t, rounds)
	opts.Registry = obs.NewRegistry()
	opts.Bus = obs.NewBus(0)
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(context.Background(), RunConfig{}); err != nil {
		t.Fatal(err)
	}
	stats := mon.CampaignStats()
	if stats.Sent == 0 || stats.Valid == 0 {
		t.Fatalf("empty campaign stats: %+v", stats)
	}

	srv := httptest.NewServer(obs.Handler(opts.Registry, opts.Bus))
	defer srv.Close()

	// JSON metrics export vs Stats.
	body := mustGetBody(t, srv.URL+"/metrics?format=json")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	country := mon.Country()
	checks := []struct {
		name   string
		labels map[string]string
		want   uint64
	}{
		{"scanner_probes_sent_total", map[string]string{"country": country}, stats.Sent},
		{"scanner_replies_total", map[string]string{"country": country, "result": "valid"}, stats.Valid},
		{"scanner_replies_total", map[string]string{"country": country, "result": "duplicate"}, stats.Duplicates},
		{"scanner_send_errors_total", map[string]string{"country": country}, stats.SendErrors},
		{"scanner_retries_total", map[string]string{"country": country}, stats.Retries},
		{"monitor_rounds_total", map[string]string{"country": country, "outcome": "scanned"}, rounds},
		{"monitor_last_round", map[string]string{"country": country}, rounds - 1},
	}
	for _, c := range checks {
		if got := metricValue(t, doc, c.name, c.labels); got != c.want {
			t.Errorf("%s%v = %d, want %d", c.name, c.labels, got, c.want)
		}
	}

	// Prometheus text export carries the same sent counter.
	text := string(mustGetBody(t, srv.URL+"/metrics"))
	if !strings.Contains(text, "# TYPE scanner_probes_sent_total counter") {
		t.Error("prometheus export missing scanner_probes_sent_total TYPE line")
	}

	// Event stream: one round_scanned per round, with per-round sent counts
	// summing to the campaign total.
	body = mustGetBody(t, srv.URL+"/events?format=json&since=0")
	var evs []obs.Event
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatal(err)
	}
	scanned, sentSum := 0, uint64(0)
	for _, ev := range evs {
		if ev.Kind != "round_scanned" {
			continue
		}
		scanned++
		sentSum += uint64(ev.Fields.(map[string]any)["sent"].(float64))
	}
	if scanned != rounds {
		t.Errorf("round_scanned events = %d, want %d", scanned, rounds)
	}
	if sentSum != stats.Sent {
		t.Errorf("events sum sent=%d, stats.Sent=%d", sentSum, stats.Sent)
	}
}

func mustGetBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCampaignCompleteOnce: however the final round is handled, the campaign
// announces its completion exactly once; a round whose journal write failed
// is not handled at all.
func TestCampaignCompleteOnce(t *testing.T) {
	darkLast := func(t *testing.T, o *Options) { *o = darkRounds(*o, o.Rounds-1) }
	countComplete := func(bus *obs.Bus) int {
		n := 0
		for _, ev := range bus.Since(0) {
			if ev.Kind == "campaign_complete" {
				n++
			}
		}
		return n
	}
	darkFleet := func(t *testing.T, o *Options) {
		o.Transport = nil
		o.Clock = scanner.NewVirtualClock(o.Start)
		o.Fleet = soloFleet(t, []fleet.Spec{{Name: "v0", Transport: func(int, time.Time) (Transport, Clock, error) {
			return nil, nil, errors.New("vantage unreachable")
		}}}, *o, 0)
	}
	for _, tc := range []struct {
		name    string
		opts    func(*testing.T, *Options)
		missing bool // the final round
	}{
		{name: "scanned"},
		{name: "mark missing", opts: darkLast, missing: true},
		{name: "fleet self-outage", opts: darkFleet, missing: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 2
			opts := smallOpts(t, rounds)
			opts.Bus = obs.NewBus(0)
			if tc.opts != nil {
				tc.opts(t, &opts)
			}
			mon, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := mon.Run(context.Background(), RunConfig{}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if complete := countComplete(opts.Bus); complete != 1 {
				t.Errorf("campaign_complete emitted %d times, want 1", complete)
			}
			if mon.Round() != rounds || mon.Store().Missing(rounds-1) != tc.missing {
				t.Errorf("round=%d missing(last)=%v", mon.Round(), mon.Store().Missing(rounds-1))
			}
		})
	}

	t.Run("journal failure", func(t *testing.T) {
		opts := smallOpts(t, 1)
		opts.RoundLogPath = t.TempDir() + "/c.cmrl"
		opts.Bus = obs.NewBus(0)
		mon, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		mon.roundLog.Close() // every later append fails
		err = mon.Run(context.Background(), RunConfig{})
		if err == nil || !strings.Contains(err.Error(), "round log") {
			t.Fatalf("Run: %v, want the round log error", err)
		}
		if complete := countComplete(opts.Bus); mon.Round() != 0 || complete != 0 {
			t.Errorf("round=%d campaign_complete=%d after a failed journal write, want 0 and 0", mon.Round(), complete)
		}
	})
}
