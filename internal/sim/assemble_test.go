package sim

import (
	"bytes"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/power"
)

// testAS is the traits entry of an AS announcing the given prefixes.
// mustAssemble is Assemble for the tests' static specs: it panics on error.
func mustAssemble(spec Spec) *Scenario {
	s, err := Assemble(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// currentRegion returns where block bi's addresses geolocate in the given
// campaign month (RegionNone when abroad).
func currentRegion(s *Scenario, bi, month int) netmodel.Region {
	bt := &s.blocks[bi]
	if !bt.Moved(month) {
		return bt.HomeRegion
	}
	return bt.MoveRegion
}

func testAS(asn netmodel.ASN, name string, hq netmodel.Region, prefixes ...string) ASTraits {
	as := &netmodel.AS{ASN: asn, Name: name, HQ: hq}
	for _, p := range prefixes {
		as.Prefixes = append(as.Prefixes, netmodel.MustParsePrefix(p))
	}
	return ASTraits{AS: as}
}

// assembleSpec builds a small two-AS world with the given event order.
func assembleSpec(t *testing.T, events []Event) Spec {
	t.Helper()
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	spec := Spec{
		Cfg: Config{
			Seed: 42, Interval: 4 * time.Hour,
			Start: start, End: SpecEnd(start, 30, 4*time.Hour),
		},
		ASes: []ASTraits{
			testAS(64500, "Alpha", netmodel.Kyiv, "100.64.0.0/23"),
			testAS(64501, "Beta", netmodel.Lviv, "100.64.2.0/24"),
		},
		Events: events,
	}
	for _, tr := range spec.ASes {
		for _, blk := range tr.AS.Blocks() {
			spec.Blocks = append(spec.Blocks, BlockTraits{
				Block: blk, ASN: tr.AS.ASN, HomeRegion: tr.AS.HQ,
				Density: 50, RespRate: 0.8, DeclineTo: 1,
			})
		}
	}
	return spec
}

func assembleEvents(start time.Time) []Event {
	return []Event{
		{
			Name: "late-outage", Kind: EffectSilent,
			From: start.Add(20 * 24 * time.Hour), To: start.Add(21 * 24 * time.Hour),
			ASNs: []netmodel.ASN{64500},
		},
		{
			Name: "early-outage", Kind: EffectBGPDown,
			From: start.Add(10 * 24 * time.Hour), To: start.Add(10*24*time.Hour + 12*time.Hour),
			ASNs: []netmodel.ASN{64501},
		},
		{
			Name: "early-drop", Kind: EffectIPSDrop, Magnitude: 0.5,
			From: start.Add(10 * 24 * time.Hour), To: start.Add(12 * 24 * time.Hour),
			Regions: []netmodel.Region{netmodel.Kyiv},
		},
	}
}

// TestAssembleSortsOutOfOrderEvents is the indexEvents regression test: the
// Kherson script happens to append events chronologically, but assembled
// scenarios may not — indexing must not assume pre-sorted input.
func TestAssembleSortsOutOfOrderEvents(t *testing.T) {
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	evs := assembleEvents(start)
	shuffled := []Event{evs[0], evs[2], evs[1]} // late first
	ordered := []Event{evs[1], evs[2], evs[0]}

	scShuf := mustAssemble(assembleSpec(t, shuffled))
	scOrd := mustAssemble(assembleSpec(t, ordered))

	// Events() comes back chronological regardless of input order.
	got := scShuf.Events()
	if len(got) != 3 {
		t.Fatalf("events = %d, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].From.Before(got[i-1].From) {
			t.Fatalf("events not sorted: %q (%v) after %q (%v)",
				got[i].Name, got[i].From, got[i-1].Name, got[i-1].From)
		}
	}
	if got[0].Name != "early-drop" || got[1].Name != "early-outage" {
		t.Fatalf("equal-From events not name-ordered: %q, %q", got[0].Name, got[1].Name)
	}

	// Ground truth is identical whichever order the events were supplied in.
	var bufShuf, bufOrd bytes.Buffer
	if _, err := scShuf.GenerateStore(nil).WriteTo(&bufShuf); err != nil {
		t.Fatal(err)
	}
	if _, err := scOrd.GenerateStore(nil).WriteTo(&bufOrd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufShuf.Bytes(), bufOrd.Bytes()) {
		t.Fatal("stores differ between shuffled and ordered event input")
	}

	// The events took effect: Beta's block is unrouted during early-outage.
	bi := scShuf.Space.BlockIndex(netmodel.MustParsePrefix("100.64.2.0/24").Base.Block())
	if bi < 0 {
		t.Fatal("Beta block missing from space")
	}
	if st := scShuf.BlockStateAt(bi, start.Add(10*24*time.Hour+2*time.Hour)); st.Routed {
		t.Fatal("Beta block routed during its BGP-down event")
	}
}

func TestAssembleDefaultsAndValidation(t *testing.T) {
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	spec := assembleSpec(t, nil)
	sc := mustAssemble(spec)

	if got := sc.TL.NumRounds(); got != 30*6 {
		t.Fatalf("rounds = %d, want %d", got, 30*6)
	}
	if len(sc.Missing) != sc.TL.NumRounds() {
		t.Fatalf("missing mask = %d rounds", len(sc.Missing))
	}
	// Default power schedule is flat: never out, so responsiveness is the
	// plain density × rate everywhere.
	for _, r := range netmodel.Regions() {
		if sc.Power.Out(r, start.Add(50*time.Hour)) {
			t.Fatalf("default power schedule reports outage in %v", r)
		}
	}
	// Zero-valued move scripts are normalized to "never moves".
	for bi := range sc.Blocks() {
		bt := sc.BlockTraitsAt(bi)
		if bt.MoveMonth != -1 {
			t.Fatalf("block %v MoveMonth = %d, want -1", bt.Block, bt.MoveMonth)
		}
		if currentRegion(sc, bi, 0) != bt.HomeRegion {
			t.Fatalf("block %v not at home in month 0", bt.Block)
		}
	}
	if sc.ASTraitsOf(64500) == nil || sc.ASTraitsOf(64501) == nil {
		t.Fatal("AS traits not registered")
	}

	// Explicit missing mask must match the timeline.
	bad := assembleSpec(t, nil)
	bad.Missing = make([]bool, 7)
	if _, err := Assemble(bad); err == nil {
		t.Fatal("short Missing mask accepted")
	}
	// Interval and bounds are required.
	bad = assembleSpec(t, nil)
	bad.Cfg.Interval = 0
	if _, err := Assemble(bad); err == nil {
		t.Fatal("zero interval accepted")
	}
	bad = assembleSpec(t, nil)
	bad.Cfg.End = bad.Cfg.Start
	if _, err := Assemble(bad); err == nil {
		t.Fatal("empty campaign accepted")
	}
	// Duplicate ASN and missing block traits are rejected.
	bad = assembleSpec(t, nil)
	bad.ASes[1].AS.ASN = 64500
	if _, err := Assemble(bad); err == nil {
		t.Fatal("duplicate ASN accepted")
	}
	bad = assembleSpec(t, nil)
	bad.Blocks = bad.Blocks[:1]
	if _, err := Assemble(bad); err == nil {
		t.Fatal("blocks without traits accepted")
	}
	// A home region past the last has no evaluation constants.
	bad = assembleSpec(t, nil)
	bad.Blocks[0].HomeRegion = netmodel.Region(netmodel.NumRegions + 1)
	if _, err := Assemble(bad); err == nil {
		t.Fatal("home region past the last accepted")
	}

	// A scripted power schedule passes through.
	withPower := assembleSpec(t, nil)
	withPower.Power = power.Scripted(start, 30, []power.Strike{
		{Day: 3, Days: 1, Hours: 24, Regions: []netmodel.Region{netmodel.Kyiv}},
	}, 1)
	sc = mustAssemble(withPower)
	if !sc.Power.Out(netmodel.Kyiv, start.Add(3*24*time.Hour+6*time.Hour)) {
		t.Fatal("scripted 24h outage not visible")
	}
}
