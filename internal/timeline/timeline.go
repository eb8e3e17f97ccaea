// Package timeline models the measurement campaign's clock: the mapping
// between probing rounds and wall-clock time, the month grid used for
// eligibility and geolocation snapshots, and the vantage-point outage
// calendar during which no data exists (§3.1, "Limitation — Single Vantage
// Point").
package timeline

import (
	"fmt"
	"time"
)

// Campaign start and end as in the paper: probing began 2022-03-02 22:00 UTC
// (the 7th day of the full-scale invasion) and the analysed window closes on
// the invasion's third anniversary.
var (
	DefaultStart = time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC)
	DefaultEnd   = time.Date(2025, 2, 24, 0, 0, 0, 0, time.UTC)

	// InvasionStart anchors "day N of the invasion" arithmetic.
	InvasionStart = time.Date(2022, 2, 24, 0, 0, 0, 0, time.UTC)
)

// DefaultInterval is the paper's bi-hourly probing interval.
const DefaultInterval = 2 * time.Hour

// Timeline is an immutable description of a measurement campaign's rounds.
type Timeline struct {
	start    time.Time
	interval time.Duration
	rounds   int
	// monthOf[i] is round i's dense month and monthLo[m] the first round at or
	// after month m's start (monthLo[NumMonths()] = rounds): month m owns
	// [monthLo[m], monthLo[m+1]), empty when the interval steps over it.
	monthOf []uint16
	monthLo []int
}

// New builds a timeline of rounds at the given interval covering
// [start, end). It panics if the interval is not positive or end precedes
// start, since both indicate a programming error in scenario setup.
func New(start, end time.Time, interval time.Duration) *Timeline {
	if interval <= 0 {
		panic("timeline: non-positive interval")
	}
	if end.Before(start) {
		panic("timeline: end before start")
	}
	rounds := int(end.Sub(start)/interval) + 1
	t := &Timeline{start: start.UTC(), interval: interval, rounds: rounds}
	// Walk the month boundaries: one calendar computation per month, none per
	// round. A Duration spans under 293 years of months, inside a uint16.
	months := t.MonthIndex(t.Time(rounds-1)) + 1
	t.monthOf = make([]uint16, rounds)
	t.monthLo = make([]int, months+1)
	for m := 1; m <= months; m++ {
		lo := rounds
		if m < months {
			lo = int((t.MonthStart(m).Sub(t.start)-1)/interval) + 1 // ceiling: month m starts after round 0
		}
		t.monthLo[m] = lo
		for i := t.monthLo[m-1]; i < lo; i++ {
			t.monthOf[i] = uint16(m - 1)
		}
	}
	return t
}

// Default returns the paper's campaign timeline: bi-hourly rounds from
// 2022-03-02 22:00 UTC through 2025-02-24.
func Default() *Timeline { return New(DefaultStart, DefaultEnd, DefaultInterval) }

// Start returns the time of round 0.
func (t *Timeline) Start() time.Time { return t.start }

// End returns the time of the last round.
func (t *Timeline) End() time.Time { return t.Time(t.rounds - 1) }

// Interval returns the spacing between rounds.
func (t *Timeline) Interval() time.Duration { return t.interval }

// NumRounds returns the number of probing rounds.
func (t *Timeline) NumRounds() int { return t.rounds }

// Time returns the UTC start time of round i.
func (t *Timeline) Time(i int) time.Time {
	return t.start.Add(time.Duration(i) * t.interval)
}

// Round returns the index of the last round at or before the given time,
// clamped to [0, NumRounds-1].
func (t *Timeline) Round(at time.Time) int {
	i, _ := t.RoundAt(at)
	return i
}

// RoundAt is Round that also reports whether at is exactly that round's start.
func (t *Timeline) RoundAt(at time.Time) (round int, start bool) {
	d := at.Sub(t.start)
	if d < 0 {
		return 0, false
	}
	i := int(d / t.interval)
	if i >= t.rounds {
		return t.rounds - 1, false
	}
	return i, d%t.interval == 0
}

// RoundsPerDay returns the number of rounds in 24 hours (at least 1).
func (t *Timeline) RoundsPerDay() int {
	n := int(24 * time.Hour / t.interval)
	if n < 1 {
		return 1
	}
	return n
}

// RoundsPerWeek returns the number of rounds in the 7-day moving-average
// window the outage signals compare against (§3.1).
func (t *Timeline) RoundsPerWeek() int {
	n := int(7 * 24 * time.Hour / t.interval)
	if n < 1 {
		return 1
	}
	return n
}

// MonthIndex returns a dense month index for the given time, with month 0
// being the month containing round 0. Times before the campaign map to 0.
func (t *Timeline) MonthIndex(at time.Time) int {
	at = at.UTC()
	m := (at.Year()-t.start.Year())*12 + int(at.Month()) - int(t.start.Month())
	if m < 0 {
		return 0
	}
	return m
}

// MonthOfRound returns the dense month index of round i. Rounds outside the
// campaign answer from the calendar, out of line so that the lookup inlines.
func (t *Timeline) MonthOfRound(i int) int {
	if uint(i) < uint(len(t.monthOf)) {
		return int(t.monthOf[i])
	}
	return t.monthOutside(i)
}

func (t *Timeline) monthOutside(i int) int { return t.MonthIndex(t.Time(i)) }

// NumMonths returns the number of months from round 0's to the last round's,
// both included.
func (t *Timeline) NumMonths() int { return len(t.monthLo) - 1 }

// MonthStart returns the first day (UTC midnight) of dense month m.
func (t *Timeline) MonthStart(m int) time.Time {
	return time.Date(t.start.Year(), t.start.Month()+time.Month(m), 1, 0, 0, 0, 0, time.UTC)
}

// MonthLabel renders dense month m as "YYYY-MM".
func (t *Timeline) MonthLabel(m int) string {
	ms := t.MonthStart(m)
	return fmt.Sprintf("%04d-%02d", ms.Year(), int(ms.Month()))
}

// MonthRounds returns the half-open round range [lo, hi) belonging to dense
// month m. An empty range is returned for months outside the campaign.
func (t *Timeline) MonthRounds(m int) (lo, hi int) {
	last := len(t.monthLo) - 1
	return t.monthLo[min(max(m, 0), last)], t.monthLo[min(max(m+1, 0), last)]
}

// DayIndex returns a dense day index (day 0 contains round 0).
func (t *Timeline) DayIndex(at time.Time) int {
	d := int(at.UTC().Sub(t.start.Truncate(24*time.Hour)) / (24 * time.Hour))
	if d < 0 {
		return 0
	}
	return d
}

// DayOfRound returns the dense day index of round i.
func (t *Timeline) DayOfRound(i int) int { return t.DayIndex(t.Time(i)) }

// NumDays returns the number of distinct days the campaign touches.
func (t *Timeline) NumDays() int { return t.DayOfRound(t.rounds-1) + 1 }

// DayStart returns UTC midnight of dense day d.
func (t *Timeline) DayStart(d int) time.Time {
	return t.start.Truncate(24 * time.Hour).Add(time.Duration(d) * 24 * time.Hour)
}
