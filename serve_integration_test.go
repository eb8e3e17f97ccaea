package countrymon

import (
	"io"
	"math"
	"net/http/httptest"
	"testing"

	"countrymon/internal/obs"
	"countrymon/internal/par"
	"countrymon/internal/serve"
	"countrymon/internal/signals"
)

// The serving read path rides along with the campaign: AttachServe seals
// every handled round into a serve.Store as it folds. These tests pin the
// wiring down end to end — live incremental sealing matches the streaming
// series, and serve API responses are byte-identical across worker counts.

// runServedCampaign runs the standard 200-round outage campaign with a
// serve store attached from round 0 and AS 25482 registered as an entity.
func runServedCampaign(t *testing.T, rounds int) (*Monitor, *serve.Store, *serve.Entity) {
	t.Helper()
	// A vantage outage over rounds 7 and 8: a missing round is sealed too.
	mon, err := New(darkRounds(streamOpts(rounds, ""), 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	tls := serve.NewStore(mon.Timeline())
	mon.AttachServe(tls)
	ent, err := tls.Register("asn", "25482", mon.ServeASSource(25482), serve.DetectWith(signals.ASConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for mon.NextRound() {
		round := mon.Round()
		for _, blk := range mon.Store().Blocks() {
			mon.SetRouted(blk, round, true, 25482)
		}
		if _, err := mon.ScanRound(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := tls.Watermark(); got != round+1 {
			t.Fatalf("round %d sealed, watermark = %d", round, got)
		}
	}
	return mon, tls, ent
}

func TestMonitorServeStoreLive(t *testing.T) {
	const rounds = 200
	mon, tls, ent := runServedCampaign(t, rounds)

	if tls.Watermark() != rounds {
		t.Fatalf("watermark = %d, want %d", tls.Watermark(), rounds)
	}

	// The campaign fits one month and every block is active from round 0,
	// so no FBS backfill ever fires: the as-published sealed columns must
	// be bit-identical to the final streaming series.
	es := mon.ASSeries(25482)
	for r := 0; r < rounds; r++ {
		if ent.Missing(r) != es.Missing[r] {
			t.Fatalf("round %d: missing %v vs %v", r, ent.Missing(r), es.Missing[r])
		}
		if math.Float32bits(ent.BGP(r)) != math.Float32bits(es.BGP.At(r)) ||
			math.Float32bits(ent.FBS(r)) != math.Float32bits(es.FBS.At(r)) ||
			math.Float32bits(ent.IPS(r)) != math.Float32bits(es.IPS.At(r)) {
			t.Fatalf("round %d: sealed (%g, %g, %g) vs series (%g, %g, %g)", r,
				ent.BGP(r), ent.FBS(r), ent.IPS(r), es.BGP.At(r), es.FBS.At(r), es.IPS.At(r))
		}
	}
	if !ent.Missing(7) || !ent.Missing(8) {
		t.Fatal("dark rounds not sealed as missing")
	}

	// Store-side detection over the sealed view agrees with the monitor's.
	sameOutages(t, "serve detection", tls.Detection(ent).Outages, mon.DetectAS(25482).Outages)
	if len(tls.Detection(ent).Outages) != 1 {
		t.Fatalf("outages = %+v, want the scripted one", tls.Detection(ent).Outages)
	}
}

func TestMonitorAttachServeMidCampaign(t *testing.T) {
	const rounds = 120
	mon, err := New(streamOpts(rounds, ""))
	if err != nil {
		t.Fatal(err)
	}
	tls := serve.NewStore(mon.Timeline())
	for mon.NextRound() {
		round := mon.Round()
		for _, blk := range mon.Store().Blocks() {
			mon.SetRouted(blk, round, true, 25482)
		}
		if round == 50 {
			// Attaching mid-campaign seals the already-handled prefix.
			mon.AttachServe(tls)
			if got := tls.Watermark(); got != 50 {
				t.Fatalf("watermark after mid-campaign attach = %d, want 50", got)
			}
		}
		if _, err := mon.ScanRound(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if tls.Watermark() != rounds {
		t.Fatalf("watermark = %d, want %d", tls.Watermark(), rounds)
	}
	// Late registration backfills the sealed prefix from the live builder.
	ent, err := tls.Register("asn", "25482", mon.ServeASSource(25482), nil)
	if err != nil {
		t.Fatal(err)
	}
	es := mon.ASSeries(25482)
	for r := 0; r < rounds; r++ {
		if ent.BGP(r) != es.BGP.At(r) || ent.FBS(r) != es.FBS.At(r) || ent.IPS(r) != es.IPS.At(r) {
			t.Fatalf("round %d: backfilled (%g, %g, %g) vs series (%g, %g, %g)", r,
				ent.BGP(r), ent.FBS(r), ent.IPS(r), es.BGP.At(r), es.FBS.At(r), es.IPS.At(r))
		}
	}
}

// TestServeResponsesWorkerInvariant is the acceptance criterion for the
// parallel pipeline: serve API responses rendered from campaigns run under
// COUNTRYMON_WORKERS=1 and =8 are byte-identical.
func TestServeResponsesWorkerInvariant(t *testing.T) {
	paths := []string{
		"/v1/series?entity=asn/25482",
		"/v1/series?entity=asn/25482&limit=64&offset=100",
		"/v1/series?entity=asn/25482&since=150",
		"/v1/outages?entity=asn/25482",
		"/v1/entities",
	}
	fetch := func(workers string) map[string]string {
		t.Helper()
		t.Setenv(par.EnvWorkers, workers)
		_, tls, _ := runServedCampaign(t, 200)
		srv := httptest.NewServer(serve.NewServer(tls))
		defer srv.Close()
		out := make(map[string]string, len(paths))
		for _, p := range paths {
			resp, err := srv.Client().Get(srv.URL + p)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("workers=%s GET %s: status %d", workers, p, resp.StatusCode)
			}
			if len(body) == 0 {
				t.Fatalf("workers=%s GET %s: empty body", workers, p)
			}
			out[p] = string(body)
		}
		return out
	}
	seq, par8 := fetch("1"), fetch("8")
	for _, p := range paths {
		if seq[p] != par8[p] {
			t.Errorf("GET %s differs between 1 and 8 workers:\n  %s\n  %s", p, seq[p], par8[p])
		}
	}
}

// TestMonitorServeEvents wires the full observable stack: a monitor with a
// bus publishes round events while the serve server fans them out over SSE.
func TestMonitorServeEvents(t *testing.T) {
	bus := obs.NewBus(64)
	opts := streamOpts(6, "")
	opts.Bus = bus
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	tls := serve.NewStore(mon.Timeline())
	mon.AttachServe(tls)
	s := serve.NewServer(tls)
	s.Observe(obs.NewRegistry(), bus)
	for mon.NextRound() {
		if _, err := mon.ScanRound(); err != nil {
			t.Fatal(err)
		}
	}
	if bus.Seq() == 0 {
		t.Fatal("campaign published no events")
	}
	// The server's event endpoint replays the bus backlog on long-poll.
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/events?format=json&since=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Fatalf("events long-poll: status %d, %d bytes", resp.StatusCode, len(body))
	}
}
