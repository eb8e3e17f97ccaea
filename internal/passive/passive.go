// Package passive implements the passive measurement comparator of Table 1:
// a Cloudflare-style observer that watches client HTTP request volumes per
// region instead of probing. Passive observation has high temporal
// resolution and zero probing load, but requires a privileged position
// (clients must already talk to you), sees only user-driven traffic (diurnal
// and demand-shaped), and attributes at region granularity — it cannot name
// the AS or /24 behind a dip the way active full-block scans can.
//
// Volumes derive from the same ground truth as the scans: responsive users
// generate requests, modulated by a strong human diurnal cycle and demand
// noise.
package passive

import (
	"math"

	"countrymon/internal/dataset"
	"countrymon/internal/regional"
	"countrymon/internal/signals"
)

// humanDiurnal is the request-demand multiplier by local hour: deep night
// troughs, evening peak.
func humanDiurnal(localHour int) float64 {
	// Smooth curve peaking at 20:00 local, trough at 04:00.
	phase := float64(localHour-20) / 24 * 2 * math.Pi
	return 0.55 + 0.45*math.Cos(phase)
}

// VolumeSeries derives per-round request volumes for a region from the
// measurement store: responsive addresses in the region's blocks generate
// demand-modulated requests. Unlike the active signals, no regionality
// filtering is applied — a CDN sees whatever geolocates there.
func VolumeSeries(st *dataset.Store, cl *regional.Classifier, rr *regional.RegionResult) []float64 {
	tl := st.Timeline()
	out := make([]float64, tl.NumRounds())
	for _, bc := range rr.Blocks {
		for r := 0; r < tl.NumRounds(); r++ {
			if st.Missing(r) {
				// A passive observer has no vantage outages; interpolate
				// with the block's previous value to keep the series
				// continuous.
				if r > 0 {
					out[r] = out[r-1]
				}
				continue
			}
			m := tl.MonthOfRound(r)
			share := cl.BlockShare(bc.Index, m, rr.Region)
			if share == 0 {
				continue
			}
			localHour := (tl.Time(r).Hour() + 2) % 24
			out[r] += float64(st.Resp(bc.Index, r)) * share * humanDiurnal(localHour) * 7.3
		}
	}
	return out
}

// Detect runs volume-drop detection: requests below frac of the trailing
// week (computed diurnal-aware, comparing against the same local hour) flag
// an outage. It reuses the signals event machinery by mapping volume onto a
// single-signal series.
func Detect(vol []float64, tl interface {
	NumRounds() int
	NumMonths() int
	MonthOfRound(int) int
	RoundsPerDay() int
	RoundsPerWeek() int
}, frac float64) *signals.Detection {
	rounds := len(vol)
	d := &signals.Detection{Flags: make([]signals.Kind, rounds)}
	perDay := tl.RoundsPerDay()
	window := 7
	for r := 0; r < rounds; r++ {
		// Baseline: mean of the same time-of-day slot over the past week
		// (passive systems compare like-for-like hours to cancel the
		// diurnal cycle).
		sum, n := 0.0, 0
		for k := 1; k <= window; k++ {
			idx := r - k*perDay
			if idx < 0 {
				break
			}
			sum += vol[idx]
			n++
		}
		if n < window/2 || sum == 0 {
			continue
		}
		base := sum / float64(n)
		if base > 5 && vol[r] < frac*base {
			d.Flags[r] = signals.SignalIPS
		}
	}
	inOutage := false
	var cur signals.Outage
	for r := 0; r < rounds; r++ {
		if d.Flags[r] != 0 {
			if !inOutage {
				cur = signals.Outage{Start: r, Signals: signals.SignalIPS}
				inOutage = true
			}
			cur.End = r + 1
		} else if inOutage {
			d.Outages = append(d.Outages, cur)
			inOutage = false
		}
	}
	if inOutage {
		d.Outages = append(d.Outages, cur)
	}
	return d
}
