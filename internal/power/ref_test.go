package power

import (
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
