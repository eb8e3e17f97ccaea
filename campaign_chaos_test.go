package countrymon_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	countrymon "countrymon"
	"countrymon/internal/campaign"
	"countrymon/internal/faults"
	"countrymon/internal/scanner"
)

// Cross-country chaos: a scripted vantage blackout that hits only country
// A's view of vantage v0 must (a) never delay or degrade country B's rounds
// — B's scans route around the open breaker the moment A's scans trip it,
// the cross-country analogue of in-round shard stealing — and (b) leave A's
// missing-round accounting and outage detection identical to the same
// country run solo through the same faults. This is the multi-campaign
// extension of chaos_test.go's single-country soak.

const xcRounds = 60

var xcStart = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func xcSpec(t *testing.T) *campaign.Spec {
	t.Helper()
	s := &campaign.Spec{
		Countries: []campaign.CountrySpec{
			{Code: "UA", Name: "Ukraine"},
			{Code: "RO", Name: "Romania"},
		},
		Vantages: 3,
		Rounds:   xcRounds,
		Interval: 2 * time.Hour,
		Start:    xcStart,
		Rate:     2000,
		Seed:     9,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// xcBlackout covers the scans of rounds [10, 16] with slack, like
// chaosWindow does.
func xcBlackout() []faults.Window {
	return []faults.Window{{
		From: xcStart.Add(10*2*time.Hour - 30*time.Minute),
		To:   xcStart.Add(16*2*time.Hour + 90*time.Minute),
		Kind: faults.Blackout,
	}}
}

// xcWrap injects the blackout into every campaign's view of v0: a vantage
// blackout is a fault of the vantage, not of one country's path, so both
// countries' scans through v0 fail during the window. (A fault scoped to a
// single country's transports would never trip the shared breaker — the
// other country's successes on the same vantage reset it every round.)
func xcWrap(country, vantage string, tr scanner.Transport) scanner.Transport {
	if vantage == "v0" {
		return faults.NewTransport(tr, nil, faults.Profile{Seed: 1, Windows: xcBlackout()})
	}
	return tr
}

// xcSoloUA runs country UA alone on its own three-vantage fleet through the
// identical faults — the single-country chaos baseline the coordinated run
// is held to.
func xcSoloUA(t *testing.T, spec *campaign.Spec) *countrymon.Monitor {
	t.Helper()
	cs := &spec.Countries[0]
	world, err := spec.World(cs)
	if err != nil {
		t.Fatal(err)
	}
	space := world.Space
	var targets []countrymon.Prefix
	for _, as := range space.ASes() {
		targets = append(targets, as.Prefixes...)
	}
	origins := make(map[countrymon.BlockID]countrymon.ASN)
	for _, blk := range space.Blocks() {
		origins[blk] = space.OriginOf(blk)
	}
	// A pool of its own with one campaign, scanning at UA's rate and seed:
	// the fleet cmd/countrymon's -vantages builds.
	sup, err := campaign.NewFleet(spec.Vantages, 0, spec.CountryRate("UA"), cs.Seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := campaign.JoinCountry(sup, "UA", world, targets, 0, 0, xcWrap)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := countrymon.New(countrymon.Options{
		Fleet:    camp,
		Clock:    scanner.NewVirtualClock(spec.Start),
		Targets:  targets,
		Start:    spec.Start,
		Interval: spec.Interval,
		Rounds:   spec.Rounds,
		Rate:     spec.CountryRate("UA"),
		Seed:     cs.Seed,
		Origins:  origins,
		Country:  "UA",
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := space.Blocks()
	for mon.NextRound() {
		r := mon.Round()
		at := world.TL.Time(r)
		for bi, blk := range blocks {
			mon.SetRouted(blk, r, world.BlockStateAt(bi, at).Routed, origins[blk])
		}
		if _, err := mon.ScanRound(); err != nil {
			t.Fatalf("solo UA round %d: %v", r, err)
		}
	}
	return mon
}

func xcMissing(mon *countrymon.Monitor) []int {
	var out []int
	for r := 0; r < xcRounds; r++ {
		if mon.Store().Missing(r) {
			out = append(out, r)
		}
	}
	return out
}

func TestChaosCrossCountryBlackout(t *testing.T) {
	spec := xcSpec(t)
	co, err := campaign.New(spec, campaign.Options{WrapTransport: xcWrap})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ua, ro := co.Country("UA"), co.Country("RO")

	// (a) Country B rode through the blackout untouched: every RO round
	// scanned, none missing, full coverage — v0's shards are donated to the
	// healthy vantages in B's rounds just as they are in A's.
	for r := 0; r < xcRounds; r++ {
		if ro.Monitor.Store().Missing(r) {
			t.Errorf("RO round %d missing despite two healthy vantages", r)
		}
		if cov := ro.Monitor.Store().Coverage(r); cov < 1 {
			t.Errorf("RO round %d coverage %v, want 1", r, cov)
		}
	}

	// (b) Country A's missing-round accounting matches the single-country
	// chaos baseline exactly.
	solo := xcSoloUA(t, spec)
	gotMissing, wantMissing := xcMissing(ua.Monitor), xcMissing(solo)
	if len(gotMissing) != len(wantMissing) {
		t.Errorf("UA missing rounds %v, solo baseline %v", gotMissing, wantMissing)
	} else {
		for i := range gotMissing {
			if gotMissing[i] != wantMissing[i] {
				t.Errorf("UA missing rounds %v, solo baseline %v", gotMissing, wantMissing)
				break
			}
		}
	}

	// ... and detects the synthetic model's scripted outage in the same
	// rounds the baseline does (the outage AS is the model's second).
	outAS := ua.World.Space.ASes()[1].ASN
	gotDet, wantDet := ua.Monitor.DetectAS(outAS), solo.DetectAS(outAS)
	if len(wantDet.Outages) == 0 {
		t.Fatal("solo baseline detected no outage for the scripted event")
	}
	if len(gotDet.Outages) != len(wantDet.Outages) {
		t.Fatalf("UA outages %+v, baseline %+v", gotDet.Outages, wantDet.Outages)
	}
	for i := range gotDet.Outages {
		if gotDet.Outages[i].Start != wantDet.Outages[i].Start ||
			gotDet.Outages[i].End != wantDet.Outages[i].End {
			t.Errorf("UA outage %d = [%d, %d), baseline [%d, %d)", i,
				gotDet.Outages[i].Start, gotDet.Outages[i].End,
				wantDet.Outages[i].Start, wantDet.Outages[i].End)
		}
	}

	// (c) Per-campaign attribution: the steals and the quarantine sighting
	// belong to UA's report; the fleet total is the per-campaign sum, so
	// nothing is double-counted when two monitors share the supervisor.
	uaRep, roRep := ua.FleetReport(), ro.FleetReport()
	if uaRep.Steals == 0 {
		t.Error("UA campaign recorded no steals despite the v0 blackout")
	}
	if len(uaRep.Quarantined) == 0 {
		t.Error("UA campaign never observed v0 quarantined")
	}
	total := co.Supervisor().Report()
	if total.Steals != uaRep.Steals+roRep.Steals {
		t.Errorf("fleet steals %d != UA %d + RO %d", total.Steals, uaRep.Steals, roRep.Steals)
	}
	if total.SelfOutages != uaRep.SelfOutages+roRep.SelfOutages {
		t.Errorf("fleet self-outages %d != UA %d + RO %d", total.SelfOutages, uaRep.SelfOutages, roRep.SelfOutages)
	}
	// The fleet-level quarantine list is deduplicated per vantage even when
	// both campaigns observed the same open breaker.
	n := 0
	for _, v := range total.Quarantined {
		if v == "v0" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("fleet quarantine list %v, want v0 exactly once", total.Quarantined)
	}

	// The coordinated UA store need not be byte-identical to the solo one
	// here — under faults the shared breaker history differs — but both
	// must carry every round.
	var cb, sb bytes.Buffer
	if _, err := ua.Monitor.Store().WriteTo(&cb); err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Store().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if cb.Len() == 0 || sb.Len() == 0 {
		t.Fatal("empty store serialization")
	}
}
