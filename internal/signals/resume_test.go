package signals

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// slidesExactly is the whole-series verdict on spans' bounds.
func slidesExactly(col *Column, window int) bool {
	hi, q := columnSpans(col, 0, col.Len(), 0, noBit)
	return slidesWithin(hi, q, window)
}

// staleView is what an earlier, shorter pass saw: es's first w rounds, equal
// to es before round r and different from it from there on — other values,
// other missing flags, and the other IPS validity in every month that holds
// no round before r. A pass over it that stops at r hands DetectFrom a state
// that may be resumed over es.
func staleView(es *EntitySeries, r, w int) *EntitySeries {
	v := *es
	bgp, fbs, ips := es.BGP.View(w), es.FBS.View(w), es.IPS.View(w)
	v.BGP, v.FBS, v.IPS = ColumnOf(es.TL, bgp.flat()), ColumnOf(es.TL, fbs.flat()), ColumnOf(es.TL, ips.flat())
	v.Missing = append([]bool(nil), es.Missing[:w]...)
	v.IPSValidMonth = append([]bool(nil), es.IPSValidMonth...)
	for i := r; i < w; i++ {
		j := (i * 7) % w
		v.BGP.Set(i, es.FBS.At(j)*0.5)
		v.FBS.Set(i, es.BGP.At(j))
		v.IPS.Set(i, es.IPS.At(j)*2)
		v.Missing[i] = i%5 == 0
	}
	first := 0
	if r > 0 {
		first = es.TL.MonthOfRound(r-1) + 1
	}
	for m := first; m < len(v.IPSValidMonth); m++ {
		v.IPSValidMonth[m] = !v.IPSValidMonth[m]
	}
	return &v
}

// sameState compares two states field by field, the running sums by their
// bits: a NaN cell leaves them NaN, which DeepEqual never calls equal.
func sameState(a, b *State) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	for _, p := range [][2]*float64{{&x.sumBGP, &y.sumBGP}, {&x.sumFBS, &y.sumFBS}, {&x.sumIPS, &y.sumIPS}} {
		if math.Float64bits(*p[0]) != math.Float64bits(*p[1]) {
			return false
		}
		*p[0], *p[1] = 0, 0
	}
	return x == y
}

// resumeCase records what one mark exercised, so a test can require that its
// series reached each situation the resume has to carry.
type resumeCase struct {
	monthStart, missing, open, zeroBGP, flipped bool
}

// requireResumes holds DetectFrom to the whole run at mark r: a pass over
// staleView(es, r, w) that takes its state at r, resumed over es with its
// next mark at m, returns the detection refOnePass gives es and the state a
// whole run over es takes at m.
func requireResumes(t *testing.T, es *EntitySeries, cfg Config, want *Detection, r, w, m int) resumeCase {
	t.Helper()
	stale := staleView(es, r, w)
	prev, from := DetectFrom(stale, cfg, nil, nil, r)
	if from == nil || from.Round() != r {
		t.Fatalf("a pass over %d rounds took no state at round %d", w, r)
	}
	if staleWant := refOnePass(stale, cfg); !reflect.DeepEqual(prev, staleWant) {
		t.Fatalf("whole run over the %d-round stale view differs from the one-pass oracle", w)
	}
	prevFlags := append([]Kind(nil), prev.Flags...)
	prevOutages := append([]Outage(nil), prev.Outages...)

	got, at := DetectFrom(es, cfg, prev, from, m)
	if !reflect.DeepEqual(got, want) {
		for i := range want.Flags {
			if got.Flags[i] != want.Flags[i] {
				t.Fatalf("resumed at %d (stale view %d rounds): round %d flags %v, whole run %v", r, w, i, got.Flags[i], want.Flags[i])
			}
		}
		t.Fatalf("resumed at %d (stale view %d rounds): outages %+v, whole run %+v", r, w, got.Outages, want.Outages)
	}
	_, wantAt := DetectFrom(es, cfg, nil, nil, m)
	if !sameState(at, wantAt) {
		t.Fatalf("resumed at %d (stale view %d rounds): state at %d %+v, whole run's %+v", r, w, m, at, wantAt)
	}
	if !slices.Equal(prev.Flags, prevFlags) || !slices.Equal(prev.Outages, prevOutages) {
		t.Fatalf("resumed at %d: the earlier detection changed under its reader", r)
	}
	if len(got.Outages) > 0 && len(prev.Outages) > 0 && &got.Outages[0] == &prev.Outages[0] {
		t.Fatalf("resumed at %d: the detection shares its outages with the earlier one", r)
	}

	lo, _ := es.TL.MonthRounds(es.TL.MonthOfRound(r))
	c := resumeCase{monthStart: lo == r && r > 0, missing: es.Missing[r]}
	_, wholeAt := DetectFrom(es, cfg, nil, nil, r)
	c.open = wholeAt.open
	c.zeroBGP = wholeAt.ongoingZeroBGP
	c.flipped = from.exact != at.exact
	return c
}

// resumeSeries draws a series for the resume tests: AS-like counts with
// dips, zero-BGP stretches (the ongoing flag), missing runs longer than the
// window, random IPS month validity over three calendar months, and — in
// half the draws — a suffix that breaks the running-sum bound: a NaN, a
// negative or subnormal cell, or values spanning more than 53 bits after a
// prefix of halves.
func resumeSeries(rng *rand.Rand) (*EntitySeries, Config, int) {
	rounds := 740 + rng.Intn(80) // months start at 0, 372 and 732
	es := flatSeries(rounds, 0, 0, 0)
	cfg := ASConfig()
	if rng.Intn(2) == 0 {
		cfg = RegionConfig()
	}
	if rng.Intn(2) == 0 {
		cfg.WindowRounds = 1 + rng.Intn(30)
	}
	window := cfg.WindowRounds
	if window <= 0 {
		window = es.TL.RoundsPerWeek()
	}
	base := [3]float32{20, 16, 800}
	if rng.Intn(3) == 0 {
		base = [3]float32{20.5, 16.5, 800.5} // halves: q = -1
	}
	for r := 0; r < rounds; r++ {
		es.BGP.Set(r, base[0])
		es.FBS.Set(r, base[1])
		es.IPS.Set(r, base[2])
		if rng.Intn(4) == 0 {
			es.IPS.Set(r, es.IPS.At(r)+float32(rng.Intn(40)))
		}
	}
	for i := 3 + rng.Intn(6); i > 0; i-- {
		lo := rng.Intn(rounds)
		hi := min(rounds, lo+1+rng.Intn(2*window+20))
		zero := rng.Intn(2) == 0
		for r := lo; r < hi; r++ {
			if zero {
				es.BGP.Set(r, 0)
				es.FBS.Set(r, 0)
				es.IPS.Set(r, 0)
			} else {
				es.BGP.Set(r, es.BGP.At(r)*0.3)
				es.FBS.Set(r, es.FBS.At(r)*0.3)
				es.IPS.Set(r, es.IPS.At(r)*0.3)
			}
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		lo := rng.Intn(rounds)
		hi := min(rounds, lo+1+rng.Intn(2*window+2))
		for r := lo; r < hi; r++ {
			es.Missing[r] = true
		}
	}
	for r := 0; r < rounds; r++ {
		if rng.Intn(30) == 0 {
			es.Missing[r] = true
		}
	}
	for m := range es.IPSValidMonth {
		es.IPSValidMonth[m] = rng.Intn(3) != 0
	}
	if rng.Intn(2) == 0 {
		at := rounds/3 + rng.Intn(rounds/2)
		col := [3]*Column{&es.BGP, &es.FBS, &es.IPS}[rng.Intn(3)]
		switch rng.Intn(4) {
		case 0:
			col.Set(at, float32(math.NaN()))
		case 1:
			col.Set(at, -col.At(at)-1)
		case 2:
			col.Set(at, math.Float32frombits(3)) // subnormal
		case 3:
			for r := range at {
				col.Set(r, float32(int(col.At(r)))+0.5)
			}
			for r := at; r < min(rounds, at+3); r++ {
				col.Set(r, 1<<50)
			}
		}
	}
	return es, cfg, window
}

// TestDetectResumesAtEveryRound resumes every random series at every round
// — month starts, missing rounds, outages and zero-BGP stretches open across
// the mark, and suffixes that flip the running-sum verdict — and holds each
// resumed run to the whole one.
func TestDetectResumesAtEveryRound(t *testing.T) {
	n := 12
	if testing.Short() || raceEnabled {
		n = 3
	}
	rng := rand.New(rand.NewSource(34))
	var seen resumeCase
	for i := 0; i < n; i++ {
		es, cfg, _ := resumeSeries(rng)
		want := refOnePass(es, cfg)
		if got := Detect(es, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("series %d: Detect differs from the one-pass oracle", i)
		}
		rounds := es.BGP.Len()
		for r := 0; r < rounds; r++ {
			w := r + 1 + rng.Intn(rounds-r) // the earlier pass's watermark
			m := r + rng.Intn(rounds-r)     // the resumed pass's mark
			c := requireResumes(t, es, cfg, want, r, w, m)
			seen.monthStart = seen.monthStart || c.monthStart
			seen.missing = seen.missing || c.missing
			seen.open = seen.open || c.open
			seen.zeroBGP = seen.zeroBGP || c.zeroBGP
			seen.flipped = seen.flipped || c.flipped
		}
	}
	if seen != (resumeCase{true, true, true, true, true}) {
		t.Errorf("the series never reached some case (month start, missing, open outage, zero-BGP, verdict flip): %+v", seen)
	}
}

// TestDetectFromMarkBounds: a mark before the resumed round or at or past
// the series' end takes no state, and a state from past the series is not
// resumed.
func TestDetectFromMarkBounds(t *testing.T) {
	es := flatSeries(400, 20, 16, 800)
	cfg := ASConfig()
	want := Detect(es, cfg)
	prev, from := DetectFrom(es, cfg, nil, nil, 200)
	for _, mark := range []int{-1, 199, 400, 401} {
		if d, at := DetectFrom(es, cfg, prev, from, mark); at != nil || !reflect.DeepEqual(d, want) {
			t.Errorf("mark %d: state %+v, detection equal to the whole run: %v", mark, at, reflect.DeepEqual(d, want))
		}
	}
	if _, at := DetectFrom(es, cfg, nil, nil, 399); at == nil || at.Round() != 399 {
		t.Errorf("a mark at the series' last round took %+v", at)
	}
	short := flatSeries(100, 20, 16, 800)
	if d, _ := DetectFrom(short, cfg, prev, from, -1); !reflect.DeepEqual(d, Detect(short, cfg)) {
		t.Errorf("a state past the series was resumed")
	}
}

// FuzzDetectResumeMatchesWhole resumes fuzzSeries' series at a fuzzed mark,
// from a fuzzed earlier watermark, to a fuzzed next mark.
func FuzzDetectResumeMatchesWhole(f *testing.F) {
	counts := make([]byte, 0, 13*120)
	for r := 0; r < 120; r++ {
		flag := byte(2)
		if r%17 == 0 {
			flag |= 1
		}
		level := byte(40)
		if r > 80 && r < 90 {
			level = 0
		}
		counts = append(counts, level, 0, 0, 0, 8, 0, 0, 0, level, 0, 0, 0, flag)
	}
	f.Add(counts, uint8(12), uint16(85), uint16(100), uint16(110))
	f.Add(counts, uint8(0), uint16(0), uint16(120), uint16(60))
	nan := append([]byte(nil), counts...) // a NaN FBS cell after the dip
	binary.LittleEndian.PutUint32(nan[13*100+4:], math.Float32bits(float32(math.NaN())))
	nan[13*100+12] = 0
	f.Add(nan, uint8(12), uint16(60), uint16(95), uint16(105))
	f.Fuzz(func(t *testing.T, data []byte, window uint8, mark, w, m uint16) {
		if len(data) > 13*600 {
			return
		}
		es, cfg := fuzzSeries(data, window)
		rounds := es.BGP.Len()
		if rounds == 0 {
			return
		}
		r := int(mark) % rounds
		requireResumes(t, es, cfg, refOnePass(es, cfg), r, r+1+int(w)%(rounds-r), r+int(m)%(rounds-r))
	})
}
