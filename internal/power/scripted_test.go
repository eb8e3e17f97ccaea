package power

import (
	"testing"
	"time"

	"countrymon/internal/netmodel"
)

func TestScriptedExactHours(t *testing.T) {
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	s := Scripted(start, 30, []Strike{
		{Day: 5, Days: 3, Hours: 10, Regions: []netmodel.Region{netmodel.Poltava}},
		{Day: 6, Days: 1, Hours: 20, Regions: []netmodel.Region{netmodel.Poltava}},
		{Day: 28, Days: 5, Hours: 6, Regions: []netmodel.Region{netmodel.Cherkasy}},
	}, 7)

	if got := s.Days(); got != 30 {
		t.Fatalf("Days = %d, want 30", got)
	}
	if got := s.Hours(5, netmodel.Poltava); got != 10 {
		t.Errorf("day 5 Poltava = %g, want 10", got)
	}
	// Overlapping strikes accumulate, capped at 24.
	if got := s.Hours(6, netmodel.Poltava); got != 24 {
		t.Errorf("day 6 Poltava = %g, want 24 (10+20 capped)", got)
	}
	if got := s.Hours(7, netmodel.Poltava); got != 10 {
		t.Errorf("day 7 Poltava = %g, want 10", got)
	}
	// Unscripted region/day is clean.
	if got := s.Hours(5, netmodel.Cherkasy); got != 0 {
		t.Errorf("day 5 Cherkasy = %g, want 0", got)
	}
	// A strike running past the schedule end is clipped, not an error.
	if got := s.Hours(29, netmodel.Cherkasy); got != 6 {
		t.Errorf("day 29 Cherkasy = %g, want 6", got)
	}

	// With no strikes the grid never goes out.
	flat := Scripted(start, 30, nil, 7)
	for d := 0; d < 30; d++ {
		for _, r := range netmodel.Regions() {
			if flat.Hours(d, r) != 0 {
				t.Fatalf("flat schedule has outage hours on day %d region %v", d, r)
			}
			if out, _ := flat.OutSince(r, start.Add(time.Duration(d*24+13)*time.Hour)); out {
				t.Fatalf("flat schedule reports power out on day %d region %v", d, r)
			}
		}
	}
}

func TestScriptedOutSinceWindows(t *testing.T) {
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	s := Scripted(start, 10, []Strike{
		{Day: 2, Days: 1, Hours: 8, Regions: []netmodel.Region{netmodel.Vinnytsia}},
	}, 99)
	// Over day 2, exactly 8 of 24 hourly samples must be inside the outage
	// window, and the since-duration must grow within the window.
	day := start.Add(2 * 24 * time.Hour)
	outHours := 0
	for h := 0; h < 24; h++ {
		if out, since := s.OutSince(netmodel.Vinnytsia, day.Add(time.Duration(h)*time.Hour)); out {
			outHours++
			if since < 0 || since >= 8.01 {
				t.Fatalf("hour %d: since = %g out of range", h, since)
			}
		}
	}
	if outHours != 8 {
		t.Fatalf("outage covers %d hourly samples, want 8", outHours)
	}
	// Empty Regions means all regions.
	all := Scripted(start, 3, []Strike{{Day: 1, Days: 1, Hours: 4}}, 1)
	for _, r := range netmodel.Regions() {
		if got := all.Hours(1, r); got != 4 {
			t.Fatalf("region %v = %g, want 4", r, got)
		}
	}
}

// TestOutSinceIgnoresCallerZone: the outage verdict and its running duration
// belong to the instant, whatever zone the caller's clock carries (the
// half-hour zone is the one that moved the minute term).
func TestOutSinceIgnoresCallerZone(t *testing.T) {
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	s := Scripted(start, 4, []Strike{{Day: 0, Days: 4, Hours: 8}}, 99)
	zones := []*time.Location{time.FixedZone("+03:00", 3*3600), time.FixedZone("+05:30", 5*3600+1800)}
	outs := 0
	for at := start; at.Before(start.Add(72 * time.Hour)); at = at.Add(50 * time.Minute) {
		out, since := s.OutSince(netmodel.Vinnytsia, at)
		if out {
			outs++
		}
		for _, z := range zones {
			if o, d := s.OutSince(netmodel.Vinnytsia, at.In(z)); o != out || d != since {
				t.Fatalf("%s in %s: OutSince = (%v, %g), in UTC (%v, %g)", at, z, o, d, out, since)
			}
		}
	}
	if outs == 0 {
		t.Fatal("no sampled instant fell inside an outage window")
	}
}
