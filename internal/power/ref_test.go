package power

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
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

// refWriteReport is WriteReport as it was when every line was formatted with
// Fprintf, kept verbatim as the oracle of the appending writer.
func (s *Schedule) refWriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "date,region,outage_hours"); err != nil {
		return err
	}
	for d := 0; d < len(s.hours); d++ {
		day := s.start.Add(time.Duration(d) * 24 * time.Hour)
		if day.Before(ReportStart) || day.After(ReportEnd) {
			continue
		}
		for _, r := range netmodel.Regions() {
			h := s.Hours(d, r)
			if h == 0 {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%s,%s,%.2f\n", day.Format("2006-01-02"), r, h); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// refReport is Report as it was when it kept a row per reported day in a map.
type refReport struct {
	start time.Time
	days  int
	hours map[int][]float64 // day -> per-region hours
}

// refParseReport is ParseReport as it was when it split a string per line,
// kept verbatim as the oracle of the in-place parser.
func refParseReport(r io.Reader) (*refReport, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rep := &refReport{start: ReportStart, hours: make(map[int][]float64)}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(line, "date,") {
				continue
			}
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("power: bad report line %q", line)
		}
		day, err := time.Parse("2006-01-02", parts[0])
		if err != nil {
			return nil, fmt.Errorf("power: bad date %q: %v", parts[0], err)
		}
		region, ok := netmodel.RegionByName(parts[1])
		if !ok {
			return nil, fmt.Errorf("power: unknown region %q", parts[1])
		}
		h, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || h < 0 || h > 24 {
			return nil, fmt.Errorf("power: bad hours %q", parts[2])
		}
		d := int(day.Sub(rep.start) / (24 * time.Hour))
		row := rep.hours[d]
		if row == nil {
			row = make([]float64, netmodel.NumRegions+1)
			rep.hours[d] = row
		}
		row[region] = h
		if d+1 > rep.days {
			rep.days = d + 1
		}
	}
	return rep, sc.Err()
}

// checkParseMatchesRef parses in with both parsers: the same rejection (the
// same error text), or the same start, span and hours on every day either
// reports, a margin around the window, for every region index.
func checkParseMatchesRef(t *testing.T, in []byte) {
	t.Helper()
	want, wantErr := refParseReport(bytes.NewReader(in))
	got, err := ParseReport(bytes.NewReader(in))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q: error %v, oracle %v", in, err, wantErr)
	}
	if err != nil {
		return
	}
	if !got.Start().Equal(want.start) || got.Days() != want.days {
		t.Fatalf("%q: start %v, %d days; oracle %v, %d", in, got.Start(), got.Days(), want.start, want.days)
	}
	days := map[int]bool{}
	for d := -3; d < int(ReportEnd.Sub(ReportStart)/(24*time.Hour))+4; d++ {
		days[d] = true
	}
	for d := range want.hours {
		days[d] = true
	}
	for d := range days {
		for r := netmodel.RegionNone; int(r) <= netmodel.NumRegions; r++ {
			w := 0.0
			if row, ok := want.hours[d]; ok {
				w = row[r]
			}
			if g := got.Hours(d, r); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%q: day %d %v: %v hours, oracle %v", in, d, r, g, w)
			}
		}
	}
}

// reportSchedules are schedules whose reports cover the whole window, part
// of it with full-day outages, and none of it.
func reportSchedules() map[string]*Schedule {
	return map[string]*Schedule{
		"generated": Generate(Config{Start: time.Date(2022, 2, 24, 0, 0, 0, 0, time.UTC), End: time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC), Seed: 5}),
		"scripted": Scripted(time.Date(2022, 12, 20, 0, 0, 0, 0, time.UTC), 60, []Strike{
			{Day: 5, Days: 20, Hours: 7.125}, {Day: 12, Days: 3, Hours: 24}, {Day: 30, Days: 1, Hours: 0.004, Regions: []netmodel.Region{netmodel.Lviv}},
		}, 3),
		"before": Scripted(time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC), 30, []Strike{{Day: 0, Days: 30, Hours: 5}}, 1),
	}
}

// TestReportCodecMatchesRef: the appending writer writes the oracle's bytes,
// and the in-place parser reads them back as the oracle does.
func TestReportCodecMatchesRef(t *testing.T) {
	for name, s := range reportSchedules() {
		var got, want bytes.Buffer
		if err := s.WriteReport(&got); err != nil {
			t.Fatal(err)
		}
		if err := s.refWriteReport(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteReport wrote %d bytes that differ from the oracle's %d", name, got.Len(), want.Len())
		}
		checkParseMatchesRef(t, got.Bytes())
	}
	// A line past the scanner's default 64 KiB token is still read; one
	// past 1 MiB is rejected by both.
	for _, pad := range []int{70 << 10, 1<<20 + 1} {
		checkParseMatchesRef(t, []byte("2024-01-01,Lviv,2\n"+strings.Repeat(" ", pad)+"2024-01-02,Kyiv,3\n"))
	}
}

// FuzzParseReportMatchesRef: on any input the in-place parser accepts what
// the oracle accepts, with the same hours, and rejects what it rejects, with
// the same error.
func FuzzParseReportMatchesRef(f *testing.F) {
	for _, s := range []string{
		"date,region,outage_hours\n2024-01-01,Lviv,5.25\n2024-01-02,Kyiv,24\n",
		"date,region,outage_hours\r\n2023-03-04,Odessa,1.50\r\n\r\n\n2023-03-05,Odessa,0.01\r\n",
		"2023-02-30,Lviv,3\n",
		"2024-02-29,Lviv,3\n2023-02-29,Lviv,3\n",
		"2024-01-01,Lviv,-0.5\n",
		"2024-01-01,Lviv,24.01\n",
		"2024-01-01,Lviv,NaN\n2024-01-01,Kyiv,+Inf\n",
		"2024-01-01,Lviv,1e1\n2024-01-01,Lviv,0x1p-2\n2024-01-01,Lviv,1_0\n",
		"2024-01-01,Lviv,5,extra\n",
		"2024-01-01,Lviv\n",
		"2024-01-01\n",
		"  2024-01-01,Lviv,2  \n\t\n",
		"2024-01-01 ,Lviv,2\n",
		"2024-1-01,Lviv,2\n", "2024-01-1,Lviv,2\n", "2024-001-1,Lviv,2\n",
		"2024-00-10,Lviv,2\n", "2024-13-10,Lviv,2\n", "2024-01-00,Lviv,2\n", "2024-01-32,Lviv,2\n", "2024-04-31,Lviv,2\n",
		"20a4-01-01,Lviv,2\n", "2024-0:-01,Lviv,2\n", "2024-01-0/,Lviv,2\n", "2024_01-01,Lviv,2\n", "2024-01+01,Lviv,2\n",
		"0000-01-01,Lviv,2\n9999-12-31,Kyiv,4\n",
		"2022-12-31,Lviv,2\n2025-01-21,Lviv,2\n2023-01-01,Lviv,1\n2025-01-20,Crimea,3\n",
		"+024-01-01,Lviv,2\n", "-024-01-01,Lviv,2\n", "2024/01/01,Lviv,2\n", "2024-01-01T00:00:00Z,Lviv,2\n",
		"2024-01-01,lviv,2\n", "2024-01-01,None,2\n", "2024-01-01,Ivano-Frankivsk,2\n",
		"date,region,outage_hours\ndate,region,outage_hours\n",
		"\n\ndate,x\n2024-01-01,Lviv,2\n",
		"",
		",,\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkParseMatchesRef(t, in)
	})
}

// TestReportCodecAllocs: writing and parsing a report allocate per report,
// not per line (a formatted date, a boxed float, a line string and its split
// per line before).
func TestReportCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	start := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	allocs := func(days int) (write, parse float64) {
		s := Scripted(start, days, []Strike{{Day: 0, Days: days, Hours: 3.5}}, 9)
		var buf bytes.Buffer
		if err := s.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 1+days*netmodel.NumRegions {
			t.Fatalf("%d days: %d lines, want %d", days, lines, 1+days*netmodel.NumRegions)
		}
		write = testing.AllocsPerRun(20, func() { s.WriteReport(io.Discard) })
		rd := bytes.NewReader(nil)
		parse = testing.AllocsPerRun(20, func() {
			rd.Reset(buf.Bytes())
			if _, err := ParseReport(rd); err != nil {
				t.Fatal(err)
			}
		})
		return write, parse
	}
	w10, p10 := allocs(10)
	w500, p500 := allocs(500)
	if w500 != w10 || p500 != p10 {
		t.Errorf("10 days: write %.0f, parse %.0f allocations; 500 days: write %.0f, parse %.0f", w10, p10, w500, p500)
	}
}
