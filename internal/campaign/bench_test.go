package campaign

import (
	"context"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
)

// BenchmarkCampaignTwoCountry times complete two-country campaigns — world
// build, fleet join, every round scanned through the shared vantages, signals
// folded — in country-rounds per second: the clean-fleet reading beside
// BenchmarkCampaignFaulted, whose faults it leaves out.
func BenchmarkCampaignTwoCountry(b *testing.B) { benchCampaign(b, Options{}) }

// BenchmarkCampaignFaulted is the same campaign with the shape of the repo
// benchmark's campaign_chaos (and campaign_chaos_test.go's xcWrap) injected:
// UA's view of v0 blacked out over rounds 5–8 and its view of v1 stalled over
// rounds 14–15, so the faults wrapper, retries, steals, re-probes and fusion
// all run. Like campaign_chaos it is the obs-on shape — a live registry and a
// default-capacity bus — so its profiles include what the metrics and events
// cost. It is what `make profile-campaign` profiles.
func BenchmarkCampaignFaulted(b *testing.B) {
	start := benchSpec().Start
	during := func(from, to int, kind faults.Kind) faults.Profile {
		return faults.Profile{Seed: 1, Windows: []faults.Window{{
			From: start.Add(time.Duration(from)*2*time.Hour - 30*time.Minute),
			To:   start.Add(time.Duration(to)*2*time.Hour + 90*time.Minute),
			Kind: kind,
		}}}
	}
	wrap := func(country, vantage string, tr scanner.Transport) scanner.Transport {
		switch {
		case country == "UA" && vantage == "v0":
			return faults.NewTransport(tr, nil, during(5, 8, faults.Blackout))
		case country == "UA" && vantage == "v1":
			return faults.NewTransport(tr, nil, during(14, 15, faults.Stall))
		}
		return tr
	}
	benchCampaign(b, Options{Registry: obs.NewRegistry(), Bus: obs.NewBus(0), WrapTransport: wrap})
}

func benchSpec() *Spec {
	return &Spec{
		Countries: []CountrySpec{
			{Code: "UA", Name: "Ukraine"},
			{Code: "RO", Name: "Romania"},
		},
		Vantages: 3,
		Rounds:   24,
		Interval: 2 * time.Hour,
		Start:    time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		Rate:     2000,
		Seed:     9,
	}
}

func benchCampaign(b *testing.B, opts Options) {
	spec := benchSpec()
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co, err := New(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := co.Run(ctx); err != nil {
			b.Fatal(err)
		}
		if err := co.Close(); err != nil {
			b.Fatal(err)
		}
	}
	rounds := float64(b.N * spec.Rounds * len(spec.Countries))
	b.ReportMetric(rounds/b.Elapsed().Seconds(), "rounds_per_sec")
}
