// Package analysis provides the statistics the evaluation needs: Pearson
// correlation (power vs Internet outages, ours vs IODA), outage-hour
// aggregation at daily/monthly granularity, CDFs, signal-to-noise ratios
// (Fig 27), and churn accounting between geolocation snapshots (§4.1).
package analysis

import (
	"math"
	"sort"
	"time"

	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

// Pearson computes the correlation coefficient between two equal-length
// series. It returns 0 when either series is constant or empty.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// OutageHoursPerDay converts a detection into hours of outage per campaign
// day (missing rounds contribute nothing).
func OutageHoursPerDay(d *signals.Detection, tl *timeline.Timeline) []float64 {
	out := make([]float64, tl.NumDays())
	hours := tl.Interval().Hours()
	for r, f := range d.Flags {
		if f != 0 {
			out[tl.DayOfRound(r)] += hours
		}
	}
	return out
}

// OutageHoursPerMonth aggregates outage hours per campaign month.
func OutageHoursPerMonth(d *signals.Detection, tl *timeline.Timeline) []float64 {
	out := make([]float64, tl.NumMonths())
	hours := tl.Interval().Hours()
	for r, f := range d.Flags {
		if f != 0 {
			out[tl.MonthOfRound(r)] += hours
		}
	}
	return out
}

// SumSeries adds b into a (padding ignored; lengths must match).
func SumSeries(a, b []float64) []float64 {
	for i := range a {
		if i < len(b) {
			a[i] += b[i]
		}
	}
	return a
}

// MeanOf averages several same-length series element-wise.
func MeanOf(series ...[]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	out := make([]float64, len(series[0]))
	for _, s := range series {
		SumSeries(out, s)
	}
	for i := range out {
		out[i] /= float64(len(series))
	}
	return out
}

// MaxOf takes the element-wise maximum of several same-length series (the
// "worst case" daily outage hours of §5.1).
func MaxOf(series ...[]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	out := make([]float64, len(series[0]))
	for _, s := range series {
		for i, v := range s {
			if i < len(out) && v > out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// YearSlice extracts the sub-series of daily values falling in the given
// calendar year, along with the matching day-of-year dates.
func YearSlice(daily []float64, tl *timeline.Timeline, year int) ([]float64, []time.Time) {
	var vals []float64
	var days []time.Time
	for d, v := range daily {
		date := tl.DayStart(d)
		if date.Year() == year {
			vals = append(vals, v)
			days = append(days, date)
		}
	}
	return vals, days
}

// CDF holds an empirical distribution.
type CDF struct {
	Sorted []float64
}

// NewCDF sorts a copy of the values.
func NewCDF(vals []float64) CDF {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return CDF{Sorted: s}
}

// Quantile returns the q-quantile (0..1).
func (c CDF) Quantile(q float64) float64 {
	if len(c.Sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(c.Sorted)-1))
	return c.Sorted[i]
}

// Median returns the 0.5 quantile.
func (c CDF) Median() float64 { return c.Quantile(0.5) }

// At returns P(X ≤ v).
func (c CDF) At(v float64) float64 {
	if len(c.Sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.Sorted, v)
	for i < len(c.Sorted) && c.Sorted[i] <= v {
		i++
	}
	return float64(i) / float64(len(c.Sorted))
}

// SNR computes the signal-to-noise ratio mean/σ of a series (Fig 27);
// higher means a clearer signal. Constant nonzero series return +Inf capped
// at 1e6.
func SNR(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	var varsum float64
	for _, v := range vals {
		d := v - mean
		varsum += d * d
	}
	sd := math.Sqrt(varsum / float64(len(vals)))
	if sd == 0 {
		if mean == 0 {
			return 0
		}
		return 1e6
	}
	snr := mean / sd
	if snr > 1e6 {
		return 1e6
	}
	return snr
}

// ChurnReport summarizes address movement between two geolocation
// snapshots (§4.1, Figs 1/19).
type ChurnReport struct {
	// PerRegionChange is the relative change of located addresses per
	// oblast (−1..+∞).
	PerRegionChange map[netmodel.Region]float64
	// MovedIntra counts addresses that changed Ukrainian region.
	MovedIntra int64
	// MovedAbroad counts addresses that left Ukraine, by destination.
	MovedAbroad map[string]int64
	// TotalMoved is MovedIntra plus all abroad moves.
	TotalMoved int64
}

// Churn compares two snapshots block by block. Blocks are the universe of
// /24s to account (the measurement targets).
func Churn(before, after *geodb.Snapshot, blocks []netmodel.BlockID) *ChurnReport {
	rep := &ChurnReport{
		PerRegionChange: make(map[netmodel.Region]float64),
		MovedAbroad:     make(map[string]int64),
	}
	beforeCount := make(map[netmodel.Region]int64)
	afterCount := make(map[netmodel.Region]int64)
	for _, blk := range blocks {
		b := before.BlockShares(blk)
		a := after.BlockShares(blk)
		for r := netmodel.Region(1); int(r) <= netmodel.NumRegions; r++ {
			beforeCount[r] += int64(b.PerRegion[r])
			afterCount[r] += int64(a.PerRegion[r])
		}
		// Movement accounting at block granularity: compare dominant
		// locations.
		br, bn := b.DominantRegion()
		ar, an := a.DominantRegion()
		switch {
		case br.Valid() && ar.Valid() && br != ar:
			moved := int64(bn)
			if int64(an) < moved {
				moved = int64(an)
			}
			rep.MovedIntra += moved
			rep.TotalMoved += moved
		case br.Valid() && !ar.Valid():
			// Left Ukraine: attribute to the dominant destination country.
			if dest, _ := after.DominantAbroad(blk, geodb.CountryUA); dest != "" {
				rep.MovedAbroad[dest] += int64(bn)
				rep.TotalMoved += int64(bn)
			}
		}
	}
	for _, r := range netmodel.Regions() {
		if beforeCount[r] > 0 {
			rep.PerRegionChange[r] = float64(afterCount[r]-beforeCount[r]) / float64(beforeCount[r])
		}
	}
	return rep
}

// DailyStartCounts converts outage events into "outages starting per day"
// (Fig 16).
func DailyStartCounts(outages []signals.Outage, tl *timeline.Timeline) []float64 {
	out := make([]float64, tl.NumDays())
	for _, o := range outages {
		out[tl.DayOfRound(o.Start)]++
	}
	return out
}
