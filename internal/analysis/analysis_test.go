package analysis

import (
	"math"
	"testing"
	"time"

	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if r := Pearson(x, x); math.Abs(r-1) > 1e-12 {
		t.Errorf("self correlation = %f", r)
	}
	y := []float64{5, 4, 3, 2, 1}
	if r := Pearson(x, y); math.Abs(r+1) > 1e-12 {
		t.Errorf("anti correlation = %f", r)
	}
	if r := Pearson(x, []float64{2, 2, 2, 2, 2}); r != 0 {
		t.Errorf("constant series correlation = %f", r)
	}
	if r := Pearson(nil, nil); r != 0 {
		t.Errorf("empty correlation = %f", r)
	}
	if r := Pearson(x, []float64{1, 2}); r != 0 {
		t.Errorf("length-mismatch correlation = %f", r)
	}
	// Noisy positive correlation.
	a := []float64{1, 3, 2, 5, 4, 7, 6, 9, 8, 11}
	b := []float64{2, 2, 3, 6, 5, 6, 7, 8, 9, 10}
	if r := Pearson(a, b); r < 0.8 {
		t.Errorf("noisy correlation = %f", r)
	}
}

func makeTL(rounds int) *timeline.Timeline {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	return timeline.New(start, start.Add(time.Duration(rounds-1)*2*time.Hour), 2*time.Hour)
}

func TestOutageHours(t *testing.T) {
	tl := makeTL(48) // 4 days
	d := &signals.Detection{Flags: make([]signals.Kind, 48)}
	// 6 rounds on day 1 = 12 hours.
	for r := 12; r < 18; r++ {
		d.Flags[r] = signals.SignalIPS
	}
	daily := OutageHoursPerDay(d, tl)
	if daily[0] != 0 || daily[1] != 12 {
		t.Errorf("daily = %v", daily[:3])
	}
	monthly := OutageHoursPerMonth(d, tl)
	if monthly[0] != 12 {
		t.Errorf("monthly = %v", monthly)
	}
}

func TestSeriesHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := MeanOf(a, b); got[0] != 2.5 || got[2] != 4.5 {
		t.Errorf("MeanOf = %v", got)
	}
	if got := MaxOf([]float64{1, 9, 2}, []float64{3, 1, 5}); got[0] != 3 || got[1] != 9 || got[2] != 5 {
		t.Errorf("MaxOf = %v", got)
	}
}

func TestYearSlice(t *testing.T) {
	start := time.Date(2023, 12, 30, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(0, 0, 5), 24*time.Hour)
	daily := []float64{1, 2, 3, 4, 5, 6}
	vals, days := YearSlice(daily, tl, 2024)
	if len(vals) != 4 {
		t.Fatalf("2024 days = %d, want 4", len(vals))
	}
	if vals[0] != 3 || days[0].Year() != 2024 {
		t.Errorf("first 2024 value = %f at %v", vals[0], days[0])
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4})
	if c.Median() != 3 {
		t.Errorf("median = %f", c.Median())
	}
	if got := c.At(2); got != 0.4 {
		t.Errorf("At(2) = %f", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %f", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %f", got)
	}
	empty := NewCDF(nil)
	if empty.Median() != 0 || empty.At(1) != 0 {
		t.Error("empty CDF should be zero")
	}
}

func TestSNR(t *testing.T) {
	stable := SNR([]float64{100, 100, 101, 99, 100})
	noisy := SNR([]float64{100, 20, 150, 10, 120})
	if stable <= noisy {
		t.Errorf("stable SNR %f should beat noisy %f", stable, noisy)
	}
	if SNR([]float64{5, 5, 5}) != 1e6 {
		t.Error("constant series should cap at 1e6")
	}
	if SNR(nil) != 0 || SNR([]float64{0, 0}) != 0 {
		t.Error("degenerate SNR")
	}
}

func TestChurn(t *testing.T) {
	blkA := netmodel.MustParseBlock("10.0.0.0/24") // stays in Kherson
	blkB := netmodel.MustParseBlock("10.0.1.0/24") // Kherson -> Kyiv
	blkC := netmodel.MustParseBlock("10.0.2.0/24") // Kherson -> US
	entry := func(b netmodel.BlockID, cc string, r netmodel.Region) geodb.Entry {
		return geodb.Entry{Prefix: netmodel.Prefix{Base: b.First(), Bits: 24}, Country: cc, Region: r, RadiusKM: 100}
	}
	before := geodb.NewSnapshot([]geodb.Entry{
		entry(blkA, "UA", netmodel.Kherson),
		entry(blkB, "UA", netmodel.Kherson),
		entry(blkC, "UA", netmodel.Kherson),
	})
	after := geodb.NewSnapshot([]geodb.Entry{
		entry(blkA, "UA", netmodel.Kherson),
		entry(blkB, "UA", netmodel.Kyiv),
		entry(blkC, "US", netmodel.RegionNone),
	})
	rep := Churn(before, after, []netmodel.BlockID{blkA, blkB, blkC})
	if got := rep.PerRegionChange[netmodel.Kherson]; math.Abs(got-(-2.0/3)) > 1e-9 {
		t.Errorf("Kherson change = %f, want -0.67", got)
	}
	if rep.MovedIntra != 256 {
		t.Errorf("MovedIntra = %d", rep.MovedIntra)
	}
	if rep.MovedAbroad["US"] != 256 {
		t.Errorf("MovedAbroad = %v", rep.MovedAbroad)
	}
	if rep.TotalMoved != 512 {
		t.Errorf("TotalMoved = %d", rep.TotalMoved)
	}
}

// TestChurnAbroadTieIsDeterministic: a Kherson block that leaves Ukraine
// split 128/128 between two countries is attributed to the lower country
// code, the same on every run (ranging a map used to decide the tie).
func TestChurnAbroadTieIsDeterministic(t *testing.T) {
	blk := netmodel.MustParseBlock("10.0.0.0/24")
	before := geodb.NewSnapshot([]geodb.Entry{
		{Prefix: netmodel.Prefix{Base: blk.First(), Bits: 24}, Country: "UA", Region: netmodel.Kherson, RadiusKM: 50},
	})
	after := geodb.NewSnapshot([]geodb.Entry{
		{Prefix: netmodel.Prefix{Base: blk.First(), Bits: 25}, Country: "US", RadiusKM: 1000},
		{Prefix: netmodel.Prefix{Base: blk.First() + 128, Bits: 25}, Country: "DE", RadiusKM: 1000},
	})
	for i := 0; i < 100; i++ {
		rep := Churn(before, after, []netmodel.BlockID{blk})
		if len(rep.MovedAbroad) != 1 || rep.MovedAbroad["DE"] != 256 || rep.TotalMoved != 256 {
			t.Fatalf("run %d: MovedAbroad = %v, TotalMoved = %d; want all 256 to DE", i, rep.MovedAbroad, rep.TotalMoved)
		}
	}
}

func TestDailyStartCounts(t *testing.T) {
	tl := makeTL(48)
	outages := []signals.Outage{{Start: 0, End: 3}, {Start: 13, End: 15}, {Start: 14, End: 20}}
	counts := DailyStartCounts(outages, tl)
	if counts[0] != 1 || counts[1] != 2 {
		t.Errorf("counts = %v", counts[:2])
	}
}
