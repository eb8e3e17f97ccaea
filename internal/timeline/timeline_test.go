package timeline

import (
	"sort"
	"testing"
	"time"
)

func TestDefaultCampaign(t *testing.T) {
	tl := Default()
	if got := tl.NumRounds(); got != 13070 {
		// (2025-02-24 00:00 - 2022-03-02 22:00) = 1089d2h -> /2h + 1
		t.Fatalf("NumRounds = %d, want 13070", got)
	}
	if !tl.Time(0).Equal(DefaultStart) {
		t.Errorf("Time(0) = %v", tl.Time(0))
	}
	if tl.Time(1).Sub(tl.Time(0)) != 2*time.Hour {
		t.Errorf("interval mismatch")
	}
	if got := tl.RoundsPerDay(); got != 12 {
		t.Errorf("RoundsPerDay = %d, want 12", got)
	}
	if got := tl.RoundsPerWeek(); got != 84 {
		t.Errorf("RoundsPerWeek = %d, want 84", got)
	}
	if tl.End().After(DefaultEnd) {
		t.Errorf("End %v after campaign end", tl.End())
	}
}

func TestRoundInverse(t *testing.T) {
	tl := Default()
	for _, i := range []int{0, 1, 11, 12, 1000, tl.NumRounds() - 1} {
		if got := tl.Round(tl.Time(i)); got != i {
			t.Errorf("Round(Time(%d)) = %d", i, got)
		}
	}
	if got := tl.Round(DefaultStart.Add(-time.Hour)); got != 0 {
		t.Errorf("Round before start = %d, want 0", got)
	}
	if got := tl.Round(DefaultEnd.AddDate(1, 0, 0)); got != tl.NumRounds()-1 {
		t.Errorf("Round after end = %d, want clamp", got)
	}
	// Mid-interval times map to the preceding round.
	if got := tl.Round(tl.Time(5).Add(time.Hour)); got != 5 {
		t.Errorf("mid-interval Round = %d, want 5", got)
	}
}

// TestRoundAt: the start flag is true at exactly the instants Time returns,
// whatever zone they carry, and RoundAt's round is Round's.
func TestRoundAt(t *testing.T) {
	start := time.Date(2023, 3, 1, 0, 0, 13, 500e6, time.UTC)
	tl := New(start, start.Add(10*24*time.Hour), 3*time.Hour+7*time.Second)
	zone := time.FixedZone("+05:30", 5*3600+1800)
	for i := 0; i < tl.NumRounds(); i++ {
		for _, d := range []time.Duration{-1, 0, 1, time.Second, tl.Interval() - 1} {
			at := tl.Time(i).Add(d).In(zone)
			round, onStart := tl.RoundAt(at)
			if round != tl.Round(at) || onStart != (d == 0) {
				t.Fatalf("RoundAt(Time(%d)%+d) = (%d, %v), Round %d", i, d, round, onStart, tl.Round(at))
			}
		}
	}
	for _, at := range []time.Time{
		start.Add(-tl.Interval()), tl.End().Add(tl.Interval()), // on the grid's extension, outside the campaign
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		if round, onStart := tl.RoundAt(at); onStart || round != tl.Round(at) {
			t.Errorf("RoundAt(%s) = (%d, %v), want Round's %d and no start", at, round, onStart, tl.Round(at))
		}
	}
}

func TestMonths(t *testing.T) {
	tl := Default()
	if got := tl.NumMonths(); got != 36 {
		t.Fatalf("NumMonths = %d, want 36 (2022-03 .. 2025-02)", got)
	}
	if got := tl.MonthLabel(0); got != "2022-03" {
		t.Errorf("MonthLabel(0) = %s", got)
	}
	if got := tl.MonthLabel(35); got != "2025-02" {
		t.Errorf("MonthLabel(35) = %s", got)
	}
	if got := tl.MonthIndex(time.Date(2023, 6, 6, 12, 0, 0, 0, time.UTC)); got != 15 {
		t.Errorf("MonthIndex(2023-06) = %d, want 15", got)
	}
	// Round->month consistency and monotonicity.
	prev := 0
	for i := 0; i < tl.NumRounds(); i += 97 {
		m := tl.MonthOfRound(i)
		if m < prev {
			t.Fatalf("month index decreased at round %d", i)
		}
		prev = m
	}
}

func TestMonthRoundsPartition(t *testing.T) {
	tl := Default()
	covered := 0
	for m := 0; m < tl.NumMonths(); m++ {
		lo, hi := tl.MonthRounds(m)
		if hi < lo {
			t.Fatalf("month %d: hi < lo", m)
		}
		for i := lo; i < hi; i++ {
			if tl.MonthOfRound(i) != m {
				t.Fatalf("round %d assigned to month %d but MonthOfRound=%d", i, m, tl.MonthOfRound(i))
			}
		}
		covered += hi - lo
	}
	if covered != tl.NumRounds() {
		t.Fatalf("month ranges cover %d rounds, want %d", covered, tl.NumRounds())
	}
}

func TestDays(t *testing.T) {
	tl := Default()
	if got := tl.DayOfRound(0); got != 0 {
		t.Errorf("DayOfRound(0) = %d", got)
	}
	// Round 0 is 22:00; round 1 (00:00 next day) is day 1.
	if got := tl.DayOfRound(1); got != 1 {
		t.Errorf("DayOfRound(1) = %d, want 1", got)
	}
	if tl.NumDays() < 1080 {
		t.Errorf("NumDays = %d, suspiciously small", tl.NumDays())
	}
	d := tl.DayStart(10)
	if d.Hour() != 0 || d.Minute() != 0 {
		t.Errorf("DayStart not midnight: %v", d)
	}
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero interval": func() { New(DefaultStart, DefaultEnd, 0) },
		"end<start":     func() { New(DefaultEnd, DefaultStart, time.Hour) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestVantageOutages(t *testing.T) {
	tl := Default()
	missing := MissingRounds(tl, DefaultVantageOutages())
	if len(missing) != tl.NumRounds() {
		t.Fatalf("missing len = %d", len(missing))
	}
	checks := []struct {
		at   time.Time
		want bool
	}{
		{time.Date(2022, 3, 6, 12, 0, 0, 0, time.UTC), true},
		{time.Date(2022, 3, 8, 12, 0, 0, 0, time.UTC), false},
		{time.Date(2022, 3, 20, 0, 0, 0, 0, time.UTC), true},
		{time.Date(2022, 10, 15, 2, 0, 0, 0, time.UTC), true},
		{time.Date(2024, 3, 15, 2, 0, 0, 0, time.UTC), true},
		{time.Date(2024, 7, 13, 20, 0, 0, 0, time.UTC), true},
		{time.Date(2024, 7, 14, 2, 0, 0, 0, time.UTC), false},
		{time.Date(2023, 6, 6, 12, 0, 0, 0, time.UTC), false},
	}
	for _, c := range checks {
		if got := missing[tl.Round(c.at)]; got != c.want {
			t.Errorf("missing at %v = %v, want %v", c.at, got, c.want)
		}
	}
	// Total missing days roughly: 2+15+8+29+1+13+1 = 69 days.
	n := 0
	for _, m := range missing {
		if m {
			n++
		}
	}
	days := float64(n) / float64(tl.RoundsPerDay())
	if days < 60 || days > 75 {
		t.Errorf("missing ~%0.1f days, want ≈69", days)
	}
}

// searchMonthRounds is MonthRounds as it was before the month table: two
// binary searches over the calendar month of each probed round.
func searchMonthRounds(tl *Timeline, m int) (lo, hi int) {
	monthOf := func(i int) int { return tl.MonthIndex(tl.Time(i)) }
	lo = sort.Search(tl.NumRounds(), func(i int) bool { return monthOf(i) >= m })
	hi = sort.Search(tl.NumRounds(), func(i int) bool { return monthOf(i) > m })
	return lo, hi
}

// TestMonthTableMatchesCalendar holds the table New builds to the calendar
// arithmetic it replaced, inside the campaign and past both ends.
func TestMonthTableMatchesCalendar(t *testing.T) {
	// 23:30 on the 31st here is already the next month in UTC.
	west := time.FixedZone("EST", -5*3600)
	for name, tl := range map[string]*Timeline{
		"default":        Default(),
		"6h":             New(DefaultStart, DefaultEnd, 6*time.Hour),
		"7h from 23:30":  New(time.Date(2022, 12, 31, 23, 30, 0, 0, west), time.Date(2023, 12, 31, 23, 30, 0, 0, west), 7*time.Hour),
		"leap February":  New(time.Date(2024, 1, 30, 5, 0, 0, 0, time.UTC), time.Date(2024, 3, 2, 0, 0, 0, 0, time.UTC), 2*time.Hour),
		"45-day rounds":  New(time.Date(2022, 1, 20, 0, 0, 0, 0, time.UTC), time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC), 45*24*time.Hour),
		"single round":   New(DefaultStart, DefaultStart, 2*time.Hour),
		"month boundary": New(time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC), time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour),
	} {
		rounds := tl.NumRounds()
		for i := -3; i < rounds+200; i++ {
			if got, want := tl.MonthOfRound(i), tl.MonthIndex(tl.Time(i)); got != want {
				t.Fatalf("%s: MonthOfRound(%d) = %d, calendar says %d", name, i, got, want)
			}
		}
		months := tl.MonthIndex(tl.Time(rounds-1)) + 1
		if got := tl.NumMonths(); got != months {
			t.Fatalf("%s: NumMonths = %d, calendar says %d", name, got, months)
		}
		for m := -2; m < months+3; m++ {
			lo, hi := tl.MonthRounds(m)
			if wlo, whi := searchMonthRounds(tl, m); lo != wlo || hi != whi {
				t.Fatalf("%s: MonthRounds(%d) = [%d,%d), the search says [%d,%d)", name, m, lo, hi, wlo, whi)
			}
		}
	}
}
