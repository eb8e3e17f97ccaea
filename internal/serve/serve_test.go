package serve

import (
	"reflect"
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

// TestAdvanceCopiesEveryMonth: an AdvanceTo that seals several months, a
// late Register that backfills them and an Advance across the last boundary
// each copy every round of every month they reach from the Source, not only
// the last month's.
func TestAdvanceCopiesEveryMonth(t *testing.T) {
	tl := threeMonths(t) // months from rounds 0, 372 and 732, the last round alone
	st := NewStore(tl)
	if _, err := st.Register("asn", "0", patternSource{0}, nil); err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		wm := st.Watermark()
		for i, e := range st.Entities() {
			for r := range wm {
				bgp, fbs, ips, missing := patternSource{i}.Sample(r)
				if e.BGP(r) != bgp || e.FBS(r) != fbs || e.IPS(r) != ips || e.Missing(r) != missing {
					t.Fatalf("%s: %s round %d reads (%v, %v, %v, %v), its source (%v, %v, %v, %v)",
						step, e.Key, r, e.BGP(r), e.FBS(r), e.IPS(r), e.Missing(r), bgp, fbs, ips, missing)
				}
			}
		}
	}
	if err := st.AdvanceTo(800); err != nil {
		t.Fatal(err)
	}
	check("AdvanceTo(800)")
	if _, err := st.Register("asn", "1", patternSource{1}, nil); err != nil {
		t.Fatal(err)
	}
	check("Register at 800")
	if err := st.AdvanceTo(tl.NumRounds()); err != nil {
		t.Fatal(err)
	}
	check("AdvanceTo(end)")
}

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
	if err := st.Advance(st.tl.NumRounds()); err == nil {
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
			Flags:   make([]signals.Kind, es.BGP.Len()),
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

	es := signals.NewSeries("asn/42", tl, make([]bool, rounds))
	for r := 0; r < rounds; r++ {
		bgp, fbs, ips, missing := src.Sample(r)
		es.BGP.Set(r, bgp)
		es.FBS.Set(r, fbs)
		es.IPS.Set(r, ips)
		es.Missing[r] = missing
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

// TestWatermarkViewOfHeldSeries: an entity fed from a series whose columns
// stop short of its span — a builder's series holds only the months it has
// folded, and reads zero past them — seals zeros past the columns and
// detects only through its watermark, as signals.Detect over the series'
// view at that watermark does, before, at and past the columns' end.
func TestWatermarkViewOfHeldSeries(t *testing.T) {
	tl := testTimeline()
	rounds := tl.NumRounds()
	_, held := tl.MonthRounds(0)
	src := patternSource{5}
	bgp, fbs, ips := make([]float32, held), make([]float32, held), make([]float32, held)
	missing := make([]bool, rounds)
	for r := range held {
		bgp[r], fbs[r], ips[r], missing[r] = src.Sample(r)
	}
	es := &signals.EntitySeries{
		Name: "asn/42", TL: tl,
		BGP: signals.ColumnOf(tl, bgp), FBS: signals.ColumnOf(tl, fbs), IPS: signals.ColumnOf(tl, ips),
		IPSValidMonth: make([]bool, tl.NumMonths()),
		Missing:       missing,
	}
	es.IPSValidMonth[0] = true
	st := NewStore(tl)
	e, err := st.Register("asn", "42", SeriesSource(es), DetectWith(signals.ASConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, wm := range []int{held / 2, held, held + 3, rounds} {
		if err := st.AdvanceTo(wm); err != nil {
			t.Fatal(err)
		}
		got := st.Detection(e)
		if len(got.Flags) != wm {
			t.Fatalf("watermark %d: detection covers %d rounds", wm, len(got.Flags))
		}
		want := signals.Detect(es.View(wm), signals.ASConfig())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("watermark %d: detection %+v, over the series' view %+v", wm, got.Outages, want.Outages)
		}
	}
	if len(st.Detection(e).Outages) == 0 {
		t.Fatal("the zero tail past the columns raised no outage: the test reads nothing")
	}
	st.Snapshot(func(int) {
		for r := held; r < rounds; r++ {
			if e.BGP(r) != 0 || e.FBS(r) != 0 || e.IPS(r) != 0 {
				t.Fatalf("round %d past the columns sealed (%g, %g, %g)", r, e.BGP(r), e.FBS(r), e.IPS(r))
			}
		}
	})
}
