package sim

import (
	"testing"
	"time"

	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

func TestGenerateStoreMatchesStateAt(t *testing.T) {
	s := testScenario(t)
	ref := newRefWorld(s)
	store := s.GenerateStore(nil)
	if store.NumBlocks() != s.Space.NumBlocks() {
		t.Fatalf("store blocks = %d", store.NumBlocks())
	}
	for bi := 0; bi < store.NumBlocks(); bi += 53 {
		for r := 0; r < s.TL.NumRounds(); r += 311 {
			if s.Missing[r] {
				if !store.Missing(r) {
					t.Fatalf("round %d should be missing", r)
				}
				continue
			}
			st := ref.refStateAt(bi, r, s.TL.Time(r))
			want := st.Resp
			if want > 255 {
				want = 255
			}
			if got := store.Resp(bi, r); got != want {
				t.Fatalf("block %d round %d: store=%d state=%d", bi, r, got, want)
			}
			if store.Routed(bi, r) != st.Routed {
				t.Fatalf("block %d round %d: routed mismatch", bi, r)
			}
		}
	}
}

func TestResponderNestedSetConsistency(t *testing.T) {
	s := testScenario(t)
	resp := s.Responder()
	at := s.TL.Time(1000)
	checked := 0
	for bi := 0; bi < s.Space.NumBlocks() && checked < 12; bi += 37 {
		st := s.BlockStateAt(bi, at)
		if st.Resp == 0 {
			continue
		}
		checked++
		blk := s.Space.Blocks()[bi]
		count := 0
		for h := 0; h < 256; h++ {
			r := resp.Respond(blk.Addr(uint8(h)), at)
			if r.Kind == simnet.EchoReply {
				count++
			}
		}
		if count != st.Resp {
			t.Fatalf("block %v: %d hosts answer, state says %d", blk, count, st.Resp)
		}
	}
	if checked == 0 {
		t.Fatal("no responsive blocks sampled")
	}
}

func TestScannerAgreesWithGroundTruth(t *testing.T) {
	// End-to-end: probe a handful of Kherson blocks through the real
	// scanner + simulated wire and compare counts with ground truth.
	s := testScenario(t)
	status := s.Space.Lookup(25482)
	var prefixes []netmodel.Prefix
	prefixes = append(prefixes, status.Prefixes...)
	ts, err := scanner.NewTargetSet(prefixes, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2022, 7, 15, 12, 0, 0, 0, time.UTC)
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), s.Responder(), start)
	sc := scanner.New(net, scanner.Config{Rate: 100000, Seed: 5, Epoch: 9, Clock: net, Cooldown: 2 * time.Second})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rd.Blocks {
		br := &rd.Blocks[i]
		bi := s.Space.BlockIndex(br.Block)
		want := s.BlockStateAt(bi, start)
		if int(br.RespCount) != want.Resp {
			t.Errorf("block %v: scanned %d, ground truth %d", br.Block, br.RespCount, want.Resp)
		}
		if want.Resp > 0 {
			got := br.MeanRTT().Milliseconds()
			if got < int64(want.RTTMS)-6 || got > int64(want.RTTMS)+6 {
				t.Errorf("block %v: RTT %dms vs truth %dms", br.Block, got, want.RTTMS)
			}
		}
	}
}

func TestGeoSnapshotChurn(t *testing.T) {
	s := testScenario(t)
	pre := s.GeoSnapshot(-1)
	late := s.GeoSnapshot(s.TL.NumMonths() - 1)
	cPre := pre.RegionIPCounts()
	cLate := late.RegionIPCounts()
	// Luhansk and Kherson must lose heavily; totals must stay plausible.
	for _, r := range []netmodel.Region{netmodel.Luhansk, netmodel.Kherson} {
		if cPre[r] == 0 {
			t.Fatalf("%v empty pre-war", r)
		}
		change := float64(cLate[r]-cPre[r]) / float64(cPre[r])
		if change > -0.3 {
			t.Errorf("%v change = %.2f, want strongly negative", r, change)
		}
	}
	// Abroad reassignments appear.
	cc := late.CountryIPCounts()
	if cc["US"] == 0 || cc["RU"] == 0 {
		t.Errorf("abroad churn missing: %v", cc)
	}
	// Leased Kherson ASes are present in geolocation.
	found := false
	for _, as := range s.LeasedASes() {
		for _, blk := range as.Blocks() {
			bs := late.BlockShares(blk)
			if bs.PerRegion[netmodel.Kherson] > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("leased AS blocks not geolocated to Kherson")
	}
}

func TestGeoSnapshotSerializationRoundTrip(t *testing.T) {
	s := testScenario(t)
	snap := s.GeoSnapshot(5)
	if snap.Len() == 0 {
		t.Fatal("empty snapshot")
	}
	var entries int
	for _, e := range snap.Entries() {
		if e.Country == geodb.CountryUA && !e.Region.Valid() {
			t.Fatalf("UA entry without region: %+v", e)
		}
		entries++
	}
	if entries < s.Space.NumBlocks() {
		t.Errorf("snapshot has %d entries for %d blocks", entries, s.Space.NumBlocks())
	}
}

func TestRadiusTrend(t *testing.T) {
	s := testScenario(t)
	early := s.radiusKM(0, true)
	late := s.radiusKM(35, true)
	if early != 50 {
		t.Errorf("2022 static radius = %d, want 50", early)
	}
	if late < 180 || late > 200 {
		t.Errorf("2025 static radius = %d, want ≈200", late)
	}
	if s.radiusKM(10, false) != 500 {
		t.Error("carrier radius should be 500")
	}
}

func TestIPv6Churn(t *testing.T) {
	s := testScenario(t)
	v6 := s.IPv6ChurnByRegion()
	if len(v6) != netmodel.NumRegions {
		t.Fatalf("regions = %d", len(v6))
	}
	if v6[netmodel.Rivne] < v6[netmodel.Kyiv] {
		t.Error("Rivne should show the strongest IPv6 growth")
	}
	pos := 0
	for _, v := range v6 {
		if v > 0 {
			pos++
		}
	}
	if pos < 20 {
		t.Errorf("IPv6 adoption should grow in most oblasts: %d positive", pos)
	}
}
