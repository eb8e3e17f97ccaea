package signals

import (
	"math"
	"math/bits"
	"time"
)

// Kind is a bitmask of the signals flagging an outage.
type Kind uint8

// Signal bits.
const (
	SignalBGP Kind = 1 << iota
	SignalFBS
	SignalIPS
)

// Has reports whether the mask contains the given signal.
func (k Kind) Has(s Kind) bool { return k&s != 0 }

func (k Kind) String() string {
	s := ""
	if k.Has(SignalBGP) {
		s += "BGP★"
	}
	if k.Has(SignalFBS) {
		if s != "" {
			s += "+"
		}
		s += "FBS■"
	}
	if k.Has(SignalIPS) {
		if s != "" {
			s += "+"
		}
		s += "IPS▲"
	}
	if s == "" {
		return "none"
	}
	return s
}

// Config holds the detection thresholds relative to the seven-day moving
// average (Table 2). A signal flags an outage when value < Frac × MA.
type Config struct {
	BGPFrac float64
	FBSFrac float64
	IPSFrac float64
	// FBSRequiresIPSBelow implements Table 2's "(if IPS < 95%)": the FBS
	// signal only fires when the IPS value is also below this fraction of
	// its moving average. Zero disables the coupling.
	FBSRequiresIPSBelow float64
	// AvailabilitySensing enables the Baltra-style filter: an FBS drop
	// accompanied by stable responsive-IP counts is dynamic address
	// reallocation, not an outage.
	AvailabilitySensing bool
	// MinBaseline suppresses detection when the moving average is below
	// this (too few entities for a meaningful ratio).
	MinBaseline float64
	// WindowRounds overrides the moving-average span (0 = seven days).
	WindowRounds int
}

// ASConfig returns the AS-level thresholds of Table 2.
func ASConfig() Config {
	return Config{
		BGPFrac: 0.95, FBSFrac: 0.80, IPSFrac: 0.80,
		FBSRequiresIPSBelow: 0.95, AvailabilitySensing: true,
		MinBaseline: 0.5,
	}
}

// RegionConfig returns the region-level thresholds of Table 2.
func RegionConfig() Config {
	return Config{
		BGPFrac: 0.95, FBSFrac: 0.95, IPSFrac: 0.90,
		FBSRequiresIPSBelow: 0.95, AvailabilitySensing: true,
		MinBaseline: 2,
	}
}

// Outage is a detected disruption: a maximal run of rounds in which at
// least one signal fired (missing rounds do not interrupt a run).
type Outage struct {
	// Start and End are round indices; the outage covers [Start, End).
	Start, End int
	// Signals is the union of signals that fired during the outage.
	Signals Kind
	// Ongoing marks outages extended by the zero-BGP flag: with no routed
	// /24 at all, the outage is considered to continue even after the
	// moving average has adapted to the new baseline (§3.1).
	Ongoing bool
}

// Duration returns the outage length given the probing interval.
func (o Outage) Duration(interval time.Duration) time.Duration {
	return time.Duration(o.End-o.Start) * interval
}

// Detection is the per-round and per-event outcome for one entity.
type Detection struct {
	// Flags[r] is the signal mask at round r.
	Flags []Kind
	// Outages are the merged events.
	Outages []Outage
}

// TotalRounds returns the number of rounds with any signal firing.
func (d *Detection) TotalRounds() int {
	n := 0
	for _, f := range d.Flags {
		if f != 0 {
			n++
		}
	}
	return n
}

// CountBySignal returns per-signal outage-event counts (an event counts for
// every signal that participated).
func (d *Detection) CountBySignal() map[Kind]int {
	out := make(map[Kind]int, 3)
	for _, o := range d.Outages {
		for _, s := range []Kind{SignalBGP, SignalFBS, SignalIPS} {
			if o.Signals.Has(s) {
				out[s]++
			}
		}
	}
	return out
}

// MovingAverage computes the mean of the previous window's non-missing
// values (excluding the current round) — the signals' seven-day baseline.
// It returns ok=false when fewer than a quarter of the window was measured.
func MovingAverage(vals []float32, missing []bool, r, window int) (float64, bool) {
	sum, n := 0.0, 0
	for i := max(r-window, 0); i < r; i++ {
		if missing[i] {
			continue
		}
		sum += float64(vals[i])
		n++
	}
	if n == 0 || n*4 < window {
		return 0, false
	}
	return sum / float64(n), true
}

// slidesExactly reports whether a running sum over vals — drop the round
// leaving the window, add the one entering — is bit-identical to
// MovingAverage's fresh left-to-right sum of every window. Float addition is
// order-independent when no partial sum rounds, and none does when every
// value is finite and ≥ 0 (a partial sum is then at most its window's sum)
// and a window's sum stays below 2^(q+53), q being the lowest bit set in any
// value: every partial sum is a multiple of 2^q that a float64 holds exactly.
// Counts and share-weighted regional sums pass; a negative, NaN, infinite or
// subnormal cell, or values spanning more than 53 bits, do not.
func slidesExactly(vals []float32, window int) bool {
	hi, q := 0, 1<<20 // highest exponent field; lowest set bit as a power of two
	for _, v := range vals {
		b := math.Float32bits(v)
		if b<<1 == 0 {
			continue // ±0 adds nothing and sets no bit
		}
		exp := int(b >> 23) // with the sign bit: ≥ 256 when negative
		if exp == 0 || exp >= 255 {
			return false
		}
		hi = max(hi, exp)
		q = min(q, exp-150+bits.TrailingZeros32(b|1<<23)) // v = (2^23 + fraction) × 2^(exp-150)
	}
	// Every value is below 2^(hi-126); a window holds at most 2^Len(window-1).
	return hi-126+bits.Len(uint(window-1)) <= q+53
}

// Detect runs outage detection for one entity series in one pass: the three
// seven-day baselines are running sums stepped once per round, bit-identical
// to MovingAverage at every round — which a series failing slidesExactly gets.
func Detect(es *EntitySeries, cfg Config) *Detection {
	rounds := len(es.BGP)
	window := cfg.WindowRounds
	if window <= 0 {
		window = es.TL.RoundsPerWeek()
	}
	d := &Detection{Flags: make([]Kind, rounds)}

	exact := slidesExactly(es.BGP, window) && slidesExactly(es.FBS, window) && slidesExactly(es.IPS, window)
	var sumBGP, sumFBS, sumIPS float64 // over the n measured rounds of [r-window, r)
	n, month, monthEnd := 0, 0, 0      // month is r's, re-read when r reaches monthEnd

	ongoingZeroBGP := false
	inOutage := false
	var cur Outage
	for r := 0; r < rounds; r++ {
		// Slide the window to [r-window, r): drop before adding, so a sum
		// never holds more than window values.
		if out := r - 1 - window; out >= 0 && !es.Missing[out] {
			n--
			sumBGP -= float64(es.BGP[out])
			sumFBS -= float64(es.FBS[out])
			sumIPS -= float64(es.IPS[out])
		}
		if r > 0 && !es.Missing[r-1] {
			n++
			sumBGP += float64(es.BGP[r-1])
			sumFBS += float64(es.FBS[r-1])
			sumIPS += float64(es.IPS[r-1])
		}
		if es.Missing[r] {
			continue // a missing round neither flags nor ends an outage
		}
		if r >= monthEnd {
			month = es.TL.MonthOfRound(r)
			_, monthEnd = es.TL.MonthRounds(month)
		}
		var flags Kind

		// One verdict for the three baselines: they share the missing mask
		// (window ≥ 1, so ok implies n > 0).
		ok := n*4 >= window
		var maBGP, maFBS, maIPS float64
		if ok && exact {
			maBGP, maFBS, maIPS = sumBGP/float64(n), sumFBS/float64(n), sumIPS/float64(n)
		} else if ok {
			maBGP, _ = MovingAverage(es.BGP, es.Missing, r, window)
			maFBS, _ = MovingAverage(es.FBS, es.Missing, r, window)
			maIPS, _ = MovingAverage(es.IPS, es.Missing, r, window)
		}

		ipsBelow := func(frac float64) bool {
			return ok && maIPS >= cfg.MinBaseline && float64(es.IPS[r]) < frac*maIPS
		}

		if ok && maBGP >= cfg.MinBaseline && float64(es.BGP[r]) < cfg.BGPFrac*maBGP {
			flags |= SignalBGP
		}
		if ok && maFBS >= cfg.MinBaseline && float64(es.FBS[r]) < cfg.FBSFrac*maFBS {
			fires := true
			if cfg.FBSRequiresIPSBelow > 0 && !ipsBelow(cfg.FBSRequiresIPSBelow) {
				fires = false
			}
			if cfg.AvailabilitySensing && maIPS > 0 &&
				float64(es.IPS[r]) >= 0.98*maIPS {
				// Blocks vanished but addresses kept answering elsewhere in
				// the entity: dynamic reallocation, not an outage.
				fires = false
			}
			if fires {
				flags |= SignalFBS
			}
		}
		if es.IPSValidMonth[month] && ipsBelow(cfg.IPSFrac) {
			flags |= SignalIPS
		}

		// Zero-BGP ongoing flag: once everything is withdrawn, the outage
		// persists until routes return, regardless of the moving average.
		hadBGP := ok && maBGP >= cfg.MinBaseline
		if es.BGP[r] == 0 && (hadBGP || ongoingZeroBGP) {
			if flags == 0 {
				flags |= SignalBGP
			}
			ongoingZeroBGP = true
		} else if es.BGP[r] > 0 {
			ongoingZeroBGP = false
		}
		d.Flags[r] = flags

		// Merge consecutive flagged rounds into events.
		if flags != 0 {
			if !inOutage {
				cur = Outage{Start: r}
				inOutage = true
			}
			cur.Signals |= flags
			if es.BGP[r] == 0 {
				cur.Ongoing = true
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
