package signals

import (
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
)

// steadyStore builds a 4-block, 400-round store with constant responsiveness
// (8 IPs per block, all routed) and the matching one-AS space — a flat
// baseline on which individual rounds can be perturbed.
func steadyStore(t *testing.T) (*dataset.Store, *netmodel.Space) {
	t.Helper()
	space := netmodel.MustBuildSpace([]*netmodel.AS{{
		ASN: 64500, Name: "Steady",
		Prefixes: []netmodel.Prefix{netmodel.MustParsePrefix("10.0.0.0/22")},
	}})
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(399*2*time.Hour), 2*time.Hour)
	s := dataset.NewStore(tl, space.Blocks())
	for bi := 0; bi < s.NumBlocks(); bi++ {
		for r := 0; r < tl.NumRounds(); r++ {
			s.SetRound(bi, r, 8, true)
		}
	}
	return s, space
}

func TestMovingAverageSkipsMissing(t *testing.T) {
	vals := make([]float32, 100)
	missing := make([]bool, 100)
	for i := range vals {
		vals[i] = 10
	}
	// Corrupt some window rounds but mark them missing: the baseline must
	// not see them.
	for i := 50; i < 60; i++ {
		vals[i], missing[i] = 0, true
	}
	ma, ok := MovingAverage(testColumn(vals), missing, 70, 40)
	if !ok || ma != 10 {
		t.Errorf("MA = %v ok=%v, want 10 excluding missing rounds", ma, ok)
	}
	// Fewer than a quarter of the window measured → no baseline.
	for i := 5; i < 40; i++ {
		missing[i] = true
	}
	if _, ok := MovingAverage(testColumn(vals), missing, 41, 40); ok {
		t.Error("MA ok with <1/4 of the window measured")
	}
}

func TestDetectionQuietAcrossVantageOutage(t *testing.T) {
	s, space := steadyStore(t)
	// A 40-round (~3.3 day) vantage outage mid-campaign.
	for r := 100; r < 140; r++ {
		s.SetMissing(r)
	}
	es := NewBuilder(s, space).AS(64500)
	for _, r := range []int{100, 139} {
		if !es.Missing[r] {
			t.Fatalf("round %d not marked missing in series", r)
		}
	}
	d := Detect(es, ASConfig())
	if len(d.Outages) != 0 {
		t.Errorf("vantage outage fabricated %d outage(s): %+v", len(d.Outages), d.Outages)
	}
	// The first measured round after the gap still has a baseline: the
	// seven-day MA skips missing rounds rather than dividing by them.
	window := es.TL.RoundsPerWeek()
	ma, ok := MovingAverage(&es.BGP, es.Missing, 140, window)
	if !ok || ma != 4 {
		t.Errorf("post-gap BGP MA = %v ok=%v, want 4", ma, ok)
	}
}

func TestOngoingOutageBridgesMissingRounds(t *testing.T) {
	es := syntheticSeries(400, 10, 8, 500)
	// Total BGP withdrawal for 60 rounds, with a vantage outage in the
	// middle of it.
	for r := 200; r < 260; r++ {
		es.BGP.Set(r, 0)
		es.FBS.Set(r, 0)
		es.IPS.Set(r, 0)
	}
	for r := 220; r < 240; r++ {
		es.Missing[r] = true
	}
	d := Detect(es, ASConfig())
	if len(d.Outages) != 1 {
		t.Fatalf("outages = %d, want 1 bridged event: %+v", len(d.Outages), d.Outages)
	}
	o := d.Outages[0]
	if o.Start != 200 || o.End != 260 {
		t.Errorf("outage [%d,%d), want [200,260)", o.Start, o.End)
	}
	if !o.Ongoing {
		t.Error("zero-BGP outage must carry the ongoing flag")
	}
}

func TestPartialRoundGatedByCoverage(t *testing.T) {
	s, space := steadyStore(t)
	// Round 250 was salvaged at 30% coverage and its data looks like a
	// total collapse — an artifact of the aborted scan, not the network.
	for bi := 0; bi < s.NumBlocks(); bi++ {
		s.SetRound(bi, 250, 0, true)
	}
	s.SetCoverage(250, 0.3)

	// Default gate (80%): the sliver is treated like a vantage outage.
	es := NewBuilder(s, space).AS(64500)
	if !es.Missing[250] {
		t.Fatal("round at 30 percent coverage not gated at the default threshold")
	}
	if d := Detect(es, ASConfig()); len(d.Outages) != 0 {
		t.Errorf("gated partial round still fabricated outages: %+v", d.Outages)
	}

	// Gate disabled: the same data reads as a real collapse, which is
	// exactly what the gate exists to prevent.
	esRaw := NewBuilderMinCoverage(s, space, 0).AS(64500)
	if esRaw.Missing[250] {
		t.Fatal("ungated builder still hides the round")
	}
	d := Detect(esRaw, ASConfig())
	if len(d.Outages) != 1 || d.Outages[0].Start != 250 {
		t.Fatalf("ungated partial round should read as an outage: %+v", d.Outages)
	}
}
