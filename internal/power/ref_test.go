package power

import (
	"math"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
)

// refOutSince is OutSince as it was when it read the time itself, kept
// verbatim as the oracle of OutSinceAt ∘ At.
func (s *Schedule) refOutSince(r netmodel.Region, at time.Time) (bool, float64) {
	at = at.UTC()
	d := s.DayIndex(at)
	h := s.Hours(d, r)
	if h <= 0 {
		return false, 0
	}
	if h >= 24 {
		return true, 24
	}
	startHour := int(hash3(s.seed^0xab12, uint64(r), uint64(d)) % 24)
	off := (at.Hour() - startHour + 24) % 24
	if float64(off) < h {
		return true, float64(off) + float64(at.Minute())/60
	}
	return false, 0
}

// TestOutSinceAtMatchesOracle: taking the instant once and asking every region
// about it answers what reading the time per region did — every hour of the
// generated schedule and of a scripted one with full-day outages, a day
// either side of both, at a minute that moves, in UTC and in two other zones.
func TestOutSinceAtMatchesOracle(t *testing.T) {
	scripted := Scripted(timeline.DefaultStart, 40, []Strike{
		{Day: 3, Days: 20, Hours: 7.5}, {Day: 10, Days: 2, Hours: 24}, {Day: 30, Days: 1, Hours: 0.4},
	}, 11)
	zones := []*time.Location{time.UTC, time.FixedZone("+05:45", 5*3600+45*60), time.FixedZone("-03:30", -(3*3600 + 30*60))}
	for name, s := range map[string]*Schedule{"generated": testSchedule(), "scripted": scripted} {
		outs := 0
		for h := -24; h < (s.Days()+1)*24; h++ {
			at := s.Start().Add(time.Duration(h)*time.Hour + time.Duration(h*7%60)*time.Minute + time.Duration(h%1000)*time.Millisecond)
			at = at.In(zones[(h+24)%3])
			in := s.At(at)
			for _, r := range netmodel.Regions() {
				wantOut, wantSince := s.refOutSince(r, at)
				if out, since := s.OutSinceAt(r, in); out != wantOut || since != wantSince {
					t.Fatalf("%s %v at %s: OutSinceAt = (%v, %g), oracle (%v, %g)", name, r, at, out, since, wantOut, wantSince)
				}
				if out, since := s.OutSince(r, at); out != wantOut || since != wantSince {
					t.Fatalf("%s %v at %s: OutSince = (%v, %g), oracle (%v, %g)", name, r, at, out, since, wantOut, wantSince)
				}
				if wantOut {
					outs++
				}
			}
		}
		if outs == 0 {
			t.Errorf("%s: the power was never out", name)
		}
	}
}

// refOutageHours is outageHours as it was when Generate called it once per
// (day, region), recomputing the grid-wide part each time, kept verbatim as
// the oracle of gridOutageHours → regionOutageHours.
func refOutageHours(day time.Time, r netmodel.Region, attacks []time.Time, seed uint64) float64 {
	if r.OccupiedSince2014() {
		// Crimea and Sevastopol are on the Russian grid (§5.1) and did not
		// share the Ukrainian grid's outages.
		return 0
	}
	h := 0.0
	y, m, _ := day.Date()

	// Rolling blackouts after the autumn 2022 strikes, easing by March 2023.
	winter2223start := time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)
	winter2223end := time.Date(2023, 3, 10, 0, 0, 0, 0, time.UTC)
	if !day.Before(winter2223start) && day.Before(winter2223end) {
		ramp := math.Min(1, float64(day.Sub(winter2223start))/(30*24*float64(time.Hour)))
		ease := math.Min(1, float64(winter2223end.Sub(day))/(45*24*float64(time.Hour)))
		h += (3 + 5*ramp) * ease
	}

	// Summer 2024 sustained deficit (mid-May through August).
	if y == 2024 {
		switch {
		case m >= time.June && m <= time.July:
			h += 12
		case m == time.May && day.Day() >= 13:
			h += 8
		case m == time.August:
			h += 8
		case m == time.November:
			h += 3
		case m == time.December:
			h += 4.5
		}
	}

	// Strike impulses: each attack adds outage hours decaying over ~3 weeks.
	for _, a := range attacks {
		dt := day.Sub(a)
		if dt >= 0 && dt < 21*24*time.Hour {
			decay := 1 - float64(dt)/(21*24*float64(time.Hour))
			h += 8 * decay
		}
	}

	if h <= 0 {
		return 0
	}
	// Regional jitter: grids are regional, outages do not hit all oblasts
	// equally (§5.1).
	jit := hash3(seed, uint64(r), uint64(day.Unix()))
	factor := 0.55 + 0.9*float64(jit%1000)/999.0 // 0.55 .. 1.45
	h *= factor
	// A fraction of region-days escape entirely.
	if jit>>32%5 == 0 {
		h *= 0.15
	}
	if h > 22 {
		h = 22
	}
	return h
}

// TestGenerateMatchesOracle: taking the grid-wide hours once per day leaves
// every (day, region) cell of the schedule bit-identical, for three seeds
// over four years from before the first winter of strikes to past the last.
func TestGenerateMatchesOracle(t *testing.T) {
	start := time.Date(2022, 2, 1, 7, 30, 0, 0, time.UTC)
	attacks := Attacks2024()
	for _, seed := range []uint64{1, 1 ^ 0x9041, 0xdecade} {
		s := Generate(Config{Start: start, End: start.AddDate(4, 0, 0), Seed: seed})
		if s.Days() < 4*365 {
			t.Fatalf("seed %d: %d days", seed, s.Days())
		}
		nonzero := 0
		for d := 0; d < s.Days(); d++ {
			day := s.Start().Add(time.Duration(d) * 24 * time.Hour)
			for _, r := range netmodel.Regions() {
				want := float32(refOutageHours(day, r, attacks, seed))
				if got := float32(s.Hours(d, r)); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("seed %d day %d %v: %v hours, oracle %v", seed, d, r, got, want)
				}
				if want != 0 {
					nonzero++
				}
			}
		}
		if nonzero == 0 {
			t.Fatalf("seed %d: no outage hours at all", seed)
		}
	}
}
