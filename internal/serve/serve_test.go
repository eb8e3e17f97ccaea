package serve

import (
	"testing"
	"time"

	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

// testTimeline spans two calendar months at 12h rounds: big enough for
// month-boundary behaviour, small enough to render fast.
func testTimeline() *timeline.Timeline {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2022, 4, 20, 0, 0, 0, 0, time.UTC)
	return timeline.New(start, end, 12*time.Hour)
}

// patternSource is a deterministic synthetic Source: every round's values
// are a pure function of (round, salt), with every 17th round missing.
type patternSource struct{ salt int }

func (s patternSource) Sample(r int) (float32, float32, float32, bool) {
	if (r+s.salt)%17 == 3 {
		return 0, 0, 0, true
	}
	return float32(10 + (r+s.salt)%5), float32(6 + (r+s.salt)%3), float32(100 + (r+s.salt)%7), false
}

func (s patternSource) IPSValidMonth(m int) bool { return (m+s.salt)%2 == 0 }

func TestStoreAdvanceSeals(t *testing.T) {
	st := NewStore(testTimeline())
	e, err := st.Register("asn", "6877", patternSource{1}, DetectWith(signals.ASConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Watermark() != 0 {
		t.Fatalf("fresh store watermark = %d", st.Watermark())
	}
	if err := st.Advance(9); err != nil {
		t.Fatal(err)
	}
	if st.Watermark() != 10 {
		t.Fatalf("watermark = %d, want 10", st.Watermark())
	}
	for r := 0; r < 10; r++ {
		bgp, fbs, ips, miss := patternSource{1}.Sample(r)
		if e.BGP(r) != bgp || e.FBS(r) != fbs || e.IPS(r) != ips || e.Missing(r) != miss {
			t.Fatalf("round %d: stored (%v,%v,%v,%v) != source (%v,%v,%v,%v)",
				r, e.BGP(r), e.FBS(r), e.IPS(r), e.Missing(r), bgp, fbs, ips, miss)
		}
	}
	// Idempotent re-advance of the newest sealed round and no-op for older.
	if err := st.Advance(9); err != nil {
		t.Fatal(err)
	}
	if err := st.Advance(4); err != nil {
		t.Fatal(err)
	}
	if st.Watermark() != 10 {
		t.Fatalf("watermark moved to %d after replays", st.Watermark())
	}
	if err := st.Advance(st.Timeline().NumRounds()); err == nil {
		t.Fatal("out-of-range Advance did not error")
	}
}

func TestRegisterBackfillsSealedRounds(t *testing.T) {
	tl := testTimeline()
	eager := NewStore(tl)
	e1, _ := eager.Register("asn", "1", patternSource{7}, nil)
	if err := eager.AdvanceTo(25); err != nil {
		t.Fatal(err)
	}

	lazy := NewStore(tl)
	if err := lazy.AdvanceTo(25); err != nil {
		t.Fatal(err)
	}
	e2, _ := lazy.Register("asn", "1", patternSource{7}, nil)

	for r := 0; r < 25; r++ {
		if e1.BGP(r) != e2.BGP(r) || e1.FBS(r) != e2.FBS(r) || e1.IPS(r) != e2.IPS(r) || e1.Missing(r) != e2.Missing(r) {
			t.Fatalf("round %d: eager and late registration disagree", r)
		}
	}
}

func TestRegisterDuplicateAndValidation(t *testing.T) {
	st := NewStore(testTimeline())
	a, err := st.Register("asn", "1", patternSource{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Register("asn", "1", patternSource{99}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("duplicate registration returned a new entity")
	}
	if _, err := st.Register("", "1", patternSource{0}, nil); err == nil {
		t.Fatal("empty type accepted")
	}
	if _, err := st.Register("asn", "1x", nil, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestSumSource(t *testing.T) {
	s := SumSource(patternSource{1}, patternSource{2})
	// Round where neither member is missing.
	b1, f1, i1, _ := patternSource{1}.Sample(0)
	b2, f2, i2, _ := patternSource{2}.Sample(0)
	bgp, fbs, ips, miss := s.Sample(0)
	if miss || bgp != b1+b2 || fbs != f1+f2 || ips != i1+i2 {
		t.Fatalf("sum sample wrong: got (%v,%v,%v,%v)", bgp, fbs, ips, miss)
	}
	// Round 2 is missing for salt 1 only: the sum is the other member alone.
	if _, _, _, m := (patternSource{1}).Sample(2); !m {
		t.Fatal("fixture assumption broken: salt-1 round 2 should be missing")
	}
	bgp, _, _, miss = s.Sample(2)
	if miss || bgp != b2+2 { // salt-2 round 2: 10+(2+2)%5 = 14 = b2+2
		t.Fatalf("partial-missing sum wrong: (%v, miss=%v)", bgp, miss)
	}
	// Salt-1 is valid in odd months, salt-2 in even: the OR covers both.
	if !s.IPSValidMonth(0) || !s.IPSValidMonth(1) {
		t.Fatal("sum IPS validity should OR the members")
	}
	if SumSource(patternSource{1}).IPSValidMonth(0) {
		t.Fatal("single-member sum should keep the member's invalid months")
	}
}

// TestDetectionMemoized checks detection runs once per watermark position.
func TestDetectionMemoized(t *testing.T) {
	st := NewStore(testTimeline())
	calls := 0
	det := func(es *signals.EntitySeries, _ *signals.Detection, _ *signals.State, _ int) (*signals.Detection, *signals.State) {
		calls++
		return &signals.Detection{
			Flags:   make([]signals.Kind, len(es.BGP)),
			Outages: []signals.Outage{{Start: 1, End: 2, Signals: signals.SignalBGP}},
		}, nil
	}
	e, _ := st.Register("region", "Kherson", patternSource{3}, det)
	if err := st.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	d1 := st.Detection(e)
	d2 := st.Detection(e)
	if d1 != d2 || calls != 1 {
		t.Fatalf("detection not memoized: %d calls", calls)
	}
	if len(d1.Outages) != 1 {
		t.Fatalf("custom detector result lost: %+v", d1.Outages)
	}
	if err := st.Advance(20); err != nil {
		t.Fatal(err)
	}
	if st.Detection(e) == d1 || calls != 2 {
		t.Fatalf("detection not recomputed after Advance: %d calls", calls)
	}
}

// TestSealedViewDetection runs the real detector over a store view and the
// identical hand-built EntitySeries, expecting identical outages.
func TestSealedViewDetection(t *testing.T) {
	tl := testTimeline()
	rounds := tl.NumRounds()
	st := NewStore(tl)
	src := patternSource{5}
	e, _ := st.Register("asn", "42", src, DetectWith(signals.ASConfig()))
	if err := st.AdvanceTo(rounds); err != nil {
		t.Fatal(err)
	}

	es := &signals.EntitySeries{
		Name: "asn/42", TL: tl,
		BGP: make([]float32, rounds), FBS: make([]float32, rounds), IPS: make([]float32, rounds),
		IPSValidMonth: make([]bool, tl.NumMonths()),
		Missing:       make([]bool, rounds),
	}
	for r := 0; r < rounds; r++ {
		es.BGP[r], es.FBS[r], es.IPS[r], es.Missing[r] = src.Sample(r)
	}
	for m := 0; m < tl.NumMonths(); m++ {
		es.IPSValidMonth[m] = src.IPSValidMonth(m)
	}
	want := signals.Detect(es, signals.ASConfig())
	got := st.Detection(e)
	if len(got.Outages) != len(want.Outages) {
		t.Fatalf("outage count %d != %d", len(got.Outages), len(want.Outages))
	}
	for i := range want.Outages {
		if got.Outages[i] != want.Outages[i] {
			t.Fatalf("outage %d: %+v != %+v", i, got.Outages[i], want.Outages[i])
		}
	}
}
