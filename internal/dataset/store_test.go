package dataset

import (
	"bytes"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/timeline"
)

func testTimeline() *timeline.Timeline {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	return timeline.New(start, start.AddDate(0, 2, 0), 2*time.Hour)
}

func testStore(t *testing.T) *Store {
	t.Helper()
	blocks := []netmodel.BlockID{
		netmodel.MustParseBlock("10.0.0.0/24"),
		netmodel.MustParseBlock("10.0.1.0/24"),
		netmodel.MustParseBlock("91.198.4.0/24"),
	}
	s := NewStore(testTimeline(), blocks)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreSetGet(t *testing.T) {
	s := testStore(t)
	s.SetRound(0, 5, 42, true)
	if got := s.Resp(0, 5); got != 42 {
		t.Errorf("Resp = %d", got)
	}
	if !s.Routed(0, 5) {
		t.Error("Routed = false")
	}
	if s.Routed(0, 6) || s.Resp(0, 6) != 0 {
		t.Error("untouched round dirty")
	}
	s.SetRound(0, 5, 0, false)
	if s.Routed(0, 5) {
		t.Error("routed bit not cleared")
	}
	// Clamping.
	s.SetRound(1, 0, 1000, true)
	if got := s.Resp(1, 0); got != RespCap {
		t.Errorf("clamped Resp = %d, want %d", got, RespCap)
	}
	s.SetRound(1, 1, -5, false)
	if got := s.Resp(1, 1); got != 0 {
		t.Errorf("negative Resp = %d", got)
	}
}

func TestStoreDedupsAndSorts(t *testing.T) {
	b := netmodel.MustParseBlock("10.0.0.0/24")
	c := netmodel.MustParseBlock("9.0.0.0/24")
	s := NewStore(testTimeline(), []netmodel.BlockID{b, c, b})
	if s.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d", s.NumBlocks())
	}
	if s.Blocks()[0] != c {
		t.Error("blocks not sorted")
	}
	if s.BlockIndex(b) != 1 || s.BlockIndex(netmodel.MustParseBlock("8.8.8.0/24")) != -1 {
		t.Error("BlockIndex wrong")
	}
}

func TestMonthStats(t *testing.T) {
	s := testStore(t)
	tl := s.Timeline()
	lo, hi := tl.MonthRounds(0)
	// Nested model: counts rise to a max of 20, mean lower.
	for r := lo; r < hi; r++ {
		c := 10
		if r == lo+3 {
			c = 20
		}
		s.SetRound(0, r, c, true)
	}
	st := s.MonthStats(0, 0)
	if st.EverActive != 20 {
		t.Errorf("EverActive = %d, want 20", st.EverActive)
	}
	if st.MeasuredRounds != hi-lo {
		t.Errorf("MeasuredRounds = %d", st.MeasuredRounds)
	}
	if st.RoutedRounds != hi-lo {
		t.Errorf("RoutedRounds = %d", st.RoutedRounds)
	}
	wantMean := (float64(10*(hi-lo-1)) + 20) / float64(hi-lo)
	if st.MeanResp < wantMean-0.01 || st.MeanResp > wantMean+0.01 {
		t.Errorf("MeanResp = %f, want %f", st.MeanResp, wantMean)
	}
	if st.Availability < 0.49 || st.Availability > 0.52 {
		t.Errorf("Availability = %f, want ≈0.5", st.Availability)
	}
}

func TestMonthStatsSkipsMissing(t *testing.T) {
	s := testStore(t)
	tl := s.Timeline()
	lo, hi := tl.MonthRounds(0)
	for r := lo; r < hi; r++ {
		s.SetRound(0, r, 50, true)
	}
	// Mark half the month missing with zero data (as a vantage outage
	// would leave).
	for r := lo; r < lo+(hi-lo)/2; r++ {
		s.SetRound(0, r, 0, false)
		s.SetMissing(r)
	}
	st := s.MonthStats(0, 0)
	if st.MeasuredRounds != hi-lo-(hi-lo)/2 {
		t.Errorf("MeasuredRounds = %d", st.MeasuredRounds)
	}
	if st.MeanResp != 50 {
		t.Errorf("MeanResp = %f, missing rounds polluted the mean", st.MeanResp)
	}
}

func TestEligibility(t *testing.T) {
	s := testStore(t)
	lo, hi := s.Timeline().MonthRounds(0)
	// Block 0: E=3 -> FBS eligible, not Trinocular.
	// Block 1: E=20, A=1.0 -> both, not indeterminate.
	// Block 2: E=20 but responsive in few rounds -> A<0.1 not eligible.
	for r := lo; r < hi; r++ {
		s.SetRound(0, r, 3, true)
		s.SetRound(1, r, 20, true)
		if r < lo+2 {
			s.SetRound(2, r, 20, true)
		}
	}
	if !s.EligibleFBS(0, 0, 3) {
		t.Error("block 0 should be FBS eligible")
	}
	if e, _ := s.EligibleTrinocular(0, 0); e {
		t.Error("block 0 should not be Trinocular eligible")
	}
	if e, ind := s.EligibleTrinocular(1, 0); !e || ind {
		t.Errorf("block 1: eligible=%v indeterminate=%v", e, ind)
	}
	if e, _ := s.EligibleTrinocular(2, 0); e {
		t.Error("block 2 availability too low for Trinocular")
	}
	// Indeterminate: E=20, A between 0.1 and 0.3.
	s2 := testStore(t)
	for r := lo; r < hi; r++ {
		c := 4 // mean 4/20 = 0.2
		if r == lo {
			c = 20
		}
		s2.SetRound(0, r, c, true)
	}
	if e, ind := s2.EligibleTrinocular(0, 0); !e || !ind {
		t.Errorf("want eligible+indeterminate, got %v/%v", e, ind)
	}
}

func TestAddRoundData(t *testing.T) {
	s := testStore(t)
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{
		netmodel.MustParsePrefix("10.0.0.0/23"),
		netmodel.MustParsePrefix("203.0.113.0/24"), // not in store
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd := &scanner.RoundData{Targets: ts, Blocks: make([]scanner.BlockResult, ts.NumBlocks())}
	for i, b := range ts.Blocks() {
		rd.Blocks[i].Block = b
		rd.Blocks[i].RespCount = uint16(10 * (i + 1))
		rd.Blocks[i].RTTSum = time.Duration(i+1) * 40 * time.Millisecond
		rd.Blocks[i].RTTCount = 1
	}
	s.TrackRTT(0)
	s.AddRoundData(7, rd)
	if got := s.Resp(0, 7); got != 10 {
		t.Errorf("block0 resp = %d", got)
	}
	if got := s.Resp(1, 7); got != 20 {
		t.Errorf("block1 resp = %d", got)
	}
	if got := s.RTT(0, 7); got != 40 {
		t.Errorf("block0 rtt = %d", got)
	}
	if s.RTTTracked(1) {
		t.Error("block1 should not be tracked")
	}
}

func TestFileRoundTrip(t *testing.T) {
	s := testStore(t)
	tl := s.Timeline()
	s.TrackRTT(2)
	for r := 0; r < tl.NumRounds(); r++ {
		s.SetRound(0, r, r%7, r%3 != 0)
		s.SetRound(2, r, (r*13)%200, true)
		s.SetRTT(2, r, uint16(30+r%50))
	}
	s.SetMissing(5)
	s.SetMissing(100)

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBlocks() != s.NumBlocks() || got.Timeline().NumRounds() != tl.NumRounds() {
		t.Fatalf("dimensions differ")
	}
	for r := 0; r < tl.NumRounds(); r++ {
		if got.Resp(0, r) != s.Resp(0, r) || got.Routed(0, r) != s.Routed(0, r) {
			t.Fatalf("round %d mismatch", r)
		}
		if got.RTT(2, r) != s.RTT(2, r) {
			t.Fatalf("rtt mismatch at %d", r)
		}
	}
	if !got.Missing(5) || !got.Missing(100) || got.Missing(6) {
		t.Error("missing mask corrupted")
	}
	if !got.RTTTracked(2) || got.RTTTracked(0) {
		t.Error("tracked set corrupted")
	}
}

func TestFileRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("NOPE          "))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	s := testStore(t)
	s.SetRound(1, 3, 99, true)
	path := t.TempDir() + "/data.cmds"
	if err := s.SaveSync(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resp(1, 3) != 99 || !got.Routed(1, 3) {
		t.Error("loaded data mismatch")
	}
}
