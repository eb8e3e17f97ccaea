// Package power models Ukraine's electricity situation: a ground-truth
// schedule of power-outage hours per region per day over the whole campaign,
// a generator that reproduces the structure the paper reports (rolling
// winter-2022/23 outages, thirteen large-scale strikes on the grid in 2024,
// ≈1,951 outage hours in 2024), and an exportable "Energy Map" dataset in the
// shape of the Ukrenergo data the paper correlates against (coverage
// 2023-01-01 through 2025-01-20 only).
//
// The simulation consumes the *ground truth* (electricity drives IPS▲ dips
// in non-frontline regions); the analysis consumes the *exported dataset* —
// so the Fig-10 correlation is emergent rather than asserted.
package power

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"countrymon/internal/netmodel"
)

// Schedule is the per-region, per-day power-outage ground truth. Hours are
// average hours without electricity on that day (0..24).
type Schedule struct {
	start time.Time // UTC midnight of day 0
	hours [][]float32
	seed  uint64
}

// ReportStart is the first day covered by the exported Ukrenergo-like
// dataset (the real Energy Map data begins 2023-01-01).
var ReportStart = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

// ReportEnd is the last day covered (2025-01-20).
var ReportEnd = time.Date(2025, 1, 20, 0, 0, 0, 0, time.UTC)

// Attacks2024 are the thirteen documented large-scale attacks on the power
// grid in 2024 the analysis marks (Fig 10).
func Attacks2024() []time.Time {
	mk := func(m time.Month, d int) time.Time { return time.Date(2024, m, d, 0, 0, 0, 0, time.UTC) }
	return []time.Time{
		mk(time.March, 22), mk(time.March, 29),
		mk(time.April, 11), mk(time.April, 27),
		mk(time.May, 8),
		mk(time.June, 1), mk(time.June, 20),
		mk(time.July, 8),
		mk(time.August, 26),
		mk(time.November, 17), mk(time.November, 28),
		mk(time.December, 13), mk(time.December, 25),
	}
}

// Config controls schedule generation.
type Config struct {
	Start time.Time // campaign start (truncated to day)
	End   time.Time // campaign end
	Seed  uint64
}

// Generate builds the ground-truth schedule.
func Generate(cfg Config) *Schedule {
	start := cfg.Start.UTC().Truncate(24 * time.Hour)
	days := int(cfg.End.UTC().Sub(start)/(24*time.Hour)) + 1
	s := &Schedule{start: start, seed: cfg.Seed}
	s.hours = make([][]float32, days)
	attacks := Attacks2024()
	for d := 0; d < days; d++ {
		day := start.Add(time.Duration(d) * 24 * time.Hour)
		grid := gridOutageHours(day, attacks)
		row := make([]float32, netmodel.NumRegions+1)
		for _, r := range netmodel.Regions() {
			row[r] = float32(regionOutageHours(grid, day, r, cfg.Seed))
		}
		s.hours[d] = row
	}
	return s
}

// gridOutageHours is the generator's core: the Ukrainian grid's average hours
// without electricity on one day, before any region's share of them.
func gridOutageHours(day time.Time, attacks []time.Time) float64 {
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
	return h
}

// regionOutageHours is one region's outage hours on a day whose grid-wide
// hours are h.
func regionOutageHours(h float64, day time.Time, r netmodel.Region, seed uint64) float64 {
	if r.OccupiedSince2014() {
		// Crimea and Sevastopol are on the Russian grid (§5.1) and did not
		// share the Ukrainian grid's outages.
		return 0
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

// Start returns UTC midnight of day 0.
func (s *Schedule) Start() time.Time { return s.start }

// Days returns the number of covered days.
func (s *Schedule) Days() int { return len(s.hours) }

// DayIndex maps a time to a day index (clamped).
func (s *Schedule) DayIndex(at time.Time) int {
	d := int(at.UTC().Sub(s.start) / (24 * time.Hour))
	if d < 0 {
		return 0
	}
	if d >= len(s.hours) {
		return len(s.hours) - 1
	}
	return d
}

// Hours returns the outage hours for a region on a day index.
func (s *Schedule) Hours(day int, r netmodel.Region) float64 {
	if day < 0 || day >= len(s.hours) {
		return 0
	}
	return float64(s.hours[day][r])
}

// HoursAt returns the outage hours for a region on the day containing at.
func (s *Schedule) HoursAt(at time.Time, r netmodel.Region) float64 {
	return s.Hours(s.DayIndex(at), r)
}

// Out reports whether the power is out in region r at time at. The day's
// outage hours are laid out as rotating windows whose start varies by region
// and day (modeling rolling blackout queues).
func (s *Schedule) Out(r netmodel.Region, at time.Time) bool {
	out, _ := s.OutSince(r, at)
	return out
}

// OutSince reports whether the power is out in region r at time at, and if
// so for how many hours the current outage window has been running. The
// duration matters because providers bridge the first hours of an outage
// with batteries and generators (§5.1: Kyivstar sustains mobile service for
// up to four hours without electricity).
func (s *Schedule) OutSince(r netmodel.Region, at time.Time) (bool, float64) {
	return s.OutSinceAt(r, s.At(at))
}

// Instant is everything OutSince reads of a time: the schedule day (clamped
// like DayIndex) and the UTC hour and minute. It is the same for every
// region, so a caller asking about many regions at one time takes it once.
type Instant struct {
	Day          int32
	Hour, Minute uint8
}

// At returns the schedule's view of time at, whatever zone at carries.
func (s *Schedule) At(at time.Time) Instant {
	at = at.UTC()
	hour, min, _ := at.Clock()
	return Instant{Day: int32(s.DayIndex(at)), Hour: uint8(hour), Minute: uint8(min)}
}

// OutSinceAt is OutSince at an instant taken with At.
func (s *Schedule) OutSinceAt(r netmodel.Region, in Instant) (bool, float64) {
	d := int(in.Day)
	h := s.Hours(d, r)
	if h <= 0 {
		return false, 0
	}
	if h >= 24 {
		return true, 24
	}
	startHour := int(hash3(s.seed^0xab12, uint64(r), uint64(d)) % 24)
	off := (int(in.Hour) - startHour + 24) % 24
	if float64(off) < h {
		return true, float64(off) + float64(in.Minute)/60
	}
	return false, 0
}

// DailyMean returns the mean outage hours across the given regions per day.
func (s *Schedule) DailyMean(regions []netmodel.Region) []float64 {
	out := make([]float64, len(s.hours))
	for d := range s.hours {
		sum := 0.0
		for _, r := range regions {
			sum += float64(s.hours[d][r])
		}
		out[d] = sum / float64(len(regions))
	}
	return out
}

// TotalHoursYear sums the daily mean over all non-frontline... no: over all
// regions' mean for days of the given calendar year (the "hours without
// electricity" headline metric; the paper cites 1,951 h for 2024).
func (s *Schedule) TotalHoursYear(year int, regions []netmodel.Region) float64 {
	daily := s.DailyMean(regions)
	total := 0.0
	for d, v := range daily {
		if s.start.Add(time.Duration(d)*24*time.Hour).Year() == year {
			total += v
		}
	}
	return total
}

// --- Exported "Energy Map" dataset ---

// WriteReport exports the schedule in the CSV-like Energy Map shape,
// restricted to the real dataset's coverage window: date, region, hours.
func (s *Schedule) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("date,region,outage_hours\n"); err != nil {
		return err
	}
	regions := netmodel.Regions()
	line := make([]byte, 0, 64)
	for d := 0; d < len(s.hours); d++ {
		day := s.start.Add(time.Duration(d) * 24 * time.Hour)
		if day.Before(ReportStart) || day.After(ReportEnd) {
			continue
		}
		for _, r := range regions {
			h := s.Hours(d, r)
			if h == 0 {
				continue
			}
			line = day.AppendFormat(line[:0], "2006-01-02")
			line = append(line, ',')
			line = append(line, r.String()...)
			line = append(line, ',')
			line = strconv.AppendFloat(line, h, 'f', 2, 64)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Report is the parsed Energy Map dataset the analysis consumes.
type Report struct {
	start time.Time
	days  int
	// window is the report window's days × regions table: day d's hours for
	// region r are window[d*rowLen+r]. Nil until a line inside it is read.
	window []float64
	// outside holds the rows of days outside the window, by day.
	outside map[int][]float64
}

// rowLen is the length of a report row, indexed by Region.
const rowLen = netmodel.NumRegions + 1

// maxReportLine bounds a report line; longer ones fail the parse.
const maxReportLine = 1 << 20

// ParseReport reads the CSV produced by WriteReport.
func ParseReport(r io.Reader) (*Report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxReportLine)
	rep := &Report{start: ReportStart}
	windowDays := max(0, int(ReportEnd.Sub(ReportStart)/(24*time.Hour))+1)
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			if bytes.HasPrefix(line, []byte("date,")) {
				continue
			}
		}
		date, rest, ok := bytes.Cut(line, []byte(","))
		name, hours, ok2 := bytes.Cut(rest, []byte(","))
		if !ok || !ok2 || bytes.IndexByte(hours, ',') >= 0 {
			return nil, fmt.Errorf("power: bad report line %q", line)
		}
		day, err := time.Parse("2006-01-02", string(date))
		if err != nil {
			return nil, fmt.Errorf("power: bad date %q: %v", date, err)
		}
		region, ok := netmodel.RegionByName(string(name))
		if !ok {
			return nil, fmt.Errorf("power: unknown region %q", name)
		}
		h, err := strconv.ParseFloat(string(hours), 64)
		if err != nil || h < 0 || h > 24 {
			return nil, fmt.Errorf("power: bad hours %q", hours)
		}
		d := int(day.Sub(rep.start) / (24 * time.Hour))
		var row []float64
		switch {
		case d >= 0 && d < windowDays:
			if rep.window == nil {
				rep.window = make([]float64, windowDays*rowLen)
			}
			row = rep.window[d*rowLen : (d+1)*rowLen]
		default:
			if row = rep.outside[d]; row == nil {
				if rep.outside == nil {
					rep.outside = make(map[int][]float64)
				}
				row = make([]float64, rowLen)
				rep.outside[d] = row
			}
		}
		row[region] = h
		if d+1 > rep.days {
			rep.days = d + 1
		}
	}
	return rep, sc.Err()
}

// Start returns the report's day-0 date.
func (r *Report) Start() time.Time { return r.start }

// Days returns the number of days the report spans.
func (r *Report) Days() int { return r.days }

// Hours returns the reported outage hours for a region on report day d.
func (r *Report) Hours(d int, region netmodel.Region) float64 {
	if d >= 0 && d < len(r.window)/rowLen {
		return r.window[d*rowLen : (d+1)*rowLen][region]
	}
	if row, ok := r.outside[d]; ok {
		return row[region]
	}
	return 0
}

// HoursOn returns reported hours for a region on a calendar day.
func (r *Report) HoursOn(day time.Time, region netmodel.Region) float64 {
	return r.Hours(int(day.UTC().Truncate(24*time.Hour).Sub(r.start)/(24*time.Hour)), region)
}

// hash3 mixes three values into a 64-bit hash (SplitMix64 composition).
func hash3(a, b, c uint64) uint64 {
	x := a
	for _, v := range [...]uint64{b, c} {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = netmodel.Mix64(x)
	}
	return x
}
