package signals

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/regional"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
)

// A series spans len(Missing) rounds and may hold its columns short of that:
// a value past them reads zero. These tests hold a short series to its
// zero-padded full-length twin — the full-timeline oracle of ref_test.go —
// and bound what a streaming builder holds.

// TestDarkTailDetectsAsFullLength: a batch build over a store whose
// trailing segments were never written — a country-wide dark tail through
// the timeline's end, on rounds no campaign marked done — holds its series
// short of the timeline, and detects the same ongoing outages, ending at the
// timeline's last round, as the full-length series of the oracle.
func TestDarkTailDetectsAsFullLength(t *testing.T) {
	sc := sim.MustBuild(sim.Config{Seed: 11, Scale: 0.02})
	blocks := sc.Space.Blocks()
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(479*6*time.Hour), 6*time.Hour)
	rounds := tl.NumRounds()
	const lit = 200
	s := dataset.NewStore(tl, blocks)
	for r := range lit {
		for bi := range s.NumBlocks() {
			s.SetRound(bi, r, 3+(bi+r)%4, true)
		}
	}
	cl := regional.NewClassifier(sc.Space, sc.GeoDB(), s)
	res := cl.ClassifyAll(regional.DefaultParams())

	want := refNewBuilderMinCoverage(s, sc.Space, DefaultMinCoverage)
	got := NewBuilderMinCoverage(s, sc.Space, DefaultMinCoverage)
	check := func(label string, w, g *EntitySeries, cfg Config) bool {
		t.Helper()
		if g.BGP.Len() >= rounds {
			t.Fatalf("%s: the series holds %d of %d rounds: no tail to read", label, g.BGP.Len(), rounds)
		}
		assertSeriesEqual(t, label, w, g)
		dw, dg := Detect(w, cfg), Detect(g, cfg)
		if !reflect.DeepEqual(dw, dg) {
			t.Fatalf("%s: detection %+v, the full-length series' %+v", label, dg.Outages, dw.Outages)
		}
		last := len(dg.Outages) - 1
		return last >= 0 && dg.Outages[last].Ongoing && dg.Outages[last].End == rounds
	}
	ongoing := 0
	for _, as := range sc.Space.ASes() {
		if check(as.ASN.String(), want.refBuildAS(as.ASN), got.AS(as.ASN), ASConfig()) {
			ongoing++
		}
	}
	for _, rg := range netmodel.Regions()[:2] {
		rr := res.Regions[rg]
		check(rg.String(), want.refBuildRegion(rr, cl), got.Region(rr, cl), RegionConfig())
	}
	if ongoing == 0 {
		t.Fatal("no AS detected the dark tail as an ongoing outage to the timeline's end")
	}
}

// TestStreamingSeriesHoldsFoldedMonths bounds a streaming builder over an
// empty 4 380-round store: each series it builds holds the first month
// only, in one allocation of three month-long columns, and grows to two
// months once a fold crosses into the second.
func TestStreamingSeriesHoldsFoldedMonths(t *testing.T) {
	sc := sim.MustBuild(sim.Config{Seed: 11, Scale: 0.02})
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(4379*2*time.Hour), 2*time.Hour)
	if tl.NumRounds() != 4380 {
		t.Fatalf("timeline has %d rounds, want 4380", tl.NumRounds())
	}
	st := dataset.NewStore(tl, sc.Space.Blocks())
	b := NewStreamingBuilder(st, sc.Space, DefaultMinCoverage)
	_, month0 := tl.MonthRounds(0)
	_, month1 := tl.MonthRounds(1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	series := make([]*EntitySeries, 0, len(sc.Space.ASes()))
	for _, as := range sc.Space.ASes() {
		series = append(series, b.AS(as.ASN))
	}
	runtime.ReadMemStats(&after)
	// A full-length series takes 12 B a round (52 560 B here); a month's
	// columns take 12 × 372 B, plus the IPS month flags, the series and its
	// fold registration.
	budget := uint64(len(series) * (12*month0 + 2048))
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("%d series over an empty store allocated %d bytes, budget %d", len(series), got, budget)
	}
	held := func(want int) {
		t.Helper()
		for _, es := range series {
			if es.BGP.Len() != want || es.FBS.Len() != want || es.IPS.Len() != want || len(es.Missing) != tl.NumRounds() {
				t.Fatalf("%s: columns hold (%d, %d, %d) rounds over a span of %d, want %d over %d",
					es.Name, es.BGP.Len(), es.FBS.Len(), es.IPS.Len(), len(es.Missing), want, tl.NumRounds())
			}
		}
	}
	held(month0)
	for r := range month0 {
		fillRound(st, r)
		if err := b.Fold(r); err != nil {
			t.Fatal(err)
		}
	}
	held(month0)
	fillRound(st, month0)
	if err := b.Fold(month0); err != nil {
		t.Fatal(err)
	}
	held(month1)
	oracle := refNewStreamingBuilder(st, sc.Space, DefaultMinCoverage)
	for _, as := range sc.Space.ASes() {
		assertSeriesEqual(t, as.ASN.String(), oracle.refBuildAS(as.ASN), b.AS(as.ASN))
	}
}

// FuzzStreamingMatchesBatch drives a streaming builder through a random
// campaign — random blocks per AS, random counts and routed bits, missing
// and coverage-gated rounds, a dark tail, month crossings, a re-fold of the
// newest round, series built at the start and mid-way, and a resume from
// the store's file at a random round — and holds every warm series, and its
// Detect over the rounds folded and over the whole span, to a batch build
// over the same store and to the full-length oracle of ref_test.go.
func FuzzStreamingMatchesBatch(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(150), uint16(90), uint16(200))
	f.Add(int64(2), uint16(120), uint16(119), uint16(0), uint16(60))
	f.Add(int64(3), uint16(400), uint16(28), uint16(27), uint16(400))
	f.Add(int64(4), uint16(64), uint16(64), uint16(63), uint16(1))
	// 400 rounds folded across the month boundaries at rounds 16, 128, 252
	// and 372, the late series built at round 195, and a resume at round
	// 300 whose builder takes four months' segments in one buffer.
	f.Add(int64(5), uint16(399), uint16(399), uint16(300), uint16(390))
	// A resume just past the third boundary, a dark tail from round 260.
	f.Add(int64(6), uint16(399), uint16(380), uint16(253), uint16(260))
	f.Fuzz(func(t *testing.T, seed int64, nRounds, folded, resumeAt, darkFrom uint16) {
		rounds := 1 + int(nRounds)%400
		last := int(folded) % rounds // the last round folded
		rng := rand.New(rand.NewSource(seed))

		// Up to four ASes of one to three /24s each, at random addresses.
		var ases []*netmodel.AS
		next := netmodel.Addr(10 << 24)
		for i := range 1 + rng.Intn(4) {
			as := &netmodel.AS{ASN: netmodel.ASN(64500 + i)}
			for range 1 + rng.Intn(3) {
				next += netmodel.Addr(1+rng.Intn(5)) << 8
				as.Prefixes = append(as.Prefixes, netmodel.Prefix{Base: next, Bits: 24})
			}
			ases = append(ases, as)
		}
		space := netmodel.MustBuildSpace(ases)
		// 6-hour rounds from late January: month 0 is four days long, so
		// most campaigns cross two or three months.
		start := time.Date(2022, 1, 28, 0, 0, 0, 0, time.UTC)
		tl := timeline.New(start, start.Add(time.Duration(rounds-1)*6*time.Hour), 6*time.Hour)
		store := dataset.NewStore(tl, space.Blocks())

		write := func(r int) {
			if rng.Intn(12) == 0 {
				store.SetMissing(r)
				return
			}
			if r < int(darkFrom) {
				for bi := range store.NumBlocks() {
					store.SetRound(bi, r, rng.Intn(7), rng.Intn(6) != 0)
				}
			}
			if rng.Intn(10) == 0 {
				store.SetCoverage(r, 0.5)
			}
			store.SetDone(r)
		}
		materialize := func(b *Builder, asns []netmodel.ASN) {
			for _, asn := range asns {
				b.AS(asn)
			}
		}
		all := make([]netmodel.ASN, len(ases))
		for i, as := range ases {
			all[i] = as.ASN
		}
		early, late := all[:len(all)/2], all[len(all)/2:]

		sb := NewStreamingBuilder(store, space, DefaultMinCoverage)
		materialize(sb, early)
		for r := 0; r <= last; r++ {
			write(r)
			if err := sb.Fold(r); err != nil {
				t.Fatal(err)
			}
			if r == last/2 {
				materialize(sb, late)
			}
			if r == int(resumeAt) && r < last {
				var buf bytes.Buffer
				if _, err := store.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				reloaded, err := dataset.ReadFrom(&buf)
				if err != nil {
					t.Fatal(err)
				}
				store = reloaded
				sb = NewStreamingBuilder(store, space, DefaultMinCoverage)
				materialize(sb, early)
				if r >= last/2 {
					materialize(sb, late)
				}
			}
		}
		if err := sb.Fold(last); err != nil { // a re-fold is idempotent
			t.Fatal(err)
		}

		// Cold builds over the same store, reading it as a live campaign's.
		batch := NewStreamingBuilder(store, space, DefaultMinCoverage)
		full := refNewStreamingBuilder(store, space, DefaultMinCoverage)
		cfg := ASConfig()
		cfg.WindowRounds = 8
		for _, asn := range all {
			got, want, ref := sb.AS(asn), batch.AS(asn), full.refBuildAS(asn)
			assertSeriesEqual(t, asn.String(), want, got)
			assertSeriesEqual(t, asn.String()+" (full length)", ref, got)
			if held := got.BGP.Len(); held < last+1 || held > tl.NumRounds() {
				t.Fatalf("%v: holds %d rounds after folding %d", asn, held, last+1)
			}
			for _, n := range []int{last + 1, tl.NumRounds()} {
				dg, dw := Detect(got.View(n), cfg), Detect(ref.View(n), cfg)
				if !reflect.DeepEqual(dg, dw) {
					t.Fatalf("%v over %d rounds: detection %+v, full-length %+v", asn, n, dg.Outages, dw.Outages)
				}
			}
		}
	})
}
