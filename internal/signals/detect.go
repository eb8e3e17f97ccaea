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

// spans folds vals into the bounds that decide whether a running sum over a
// column — drop the round leaving the window, add the one entering — is
// bit-identical to MovingAverage's fresh left-to-right sum of every window:
// hi is the highest exponent field, q the lowest set bit as a power of two.
// Float addition is order-independent when no partial sum rounds, and none
// does when every value is finite and ≥ 0 (a partial sum is then at most its
// window's sum) and a window's sum stays below 2^(q+53): every partial sum is
// a multiple of 2^q that a float64 holds exactly. A negative, NaN, infinite
// or subnormal cell sets hi to unbounded, which no window passes. The bounds
// only tighten and merge by max and min, so a prefix's and a suffix's
// combine into the whole series'.
func spans(vals []float32, hi, q int) (int, int) {
	lo := 255 // lowest exponent field: 0 for a subnormal
	for _, v := range vals {
		b := math.Float32bits(v)
		if b<<1 == 0 {
			continue // ±0 adds nothing and sets no bit
		}
		exp := int(b >> 23) // with the sign bit: ≥ 256 when negative
		hi = max(hi, exp)
		lo = min(lo, exp)
		q = min(q, exp-150+bits.TrailingZeros32(b|1<<23)) // v = (2^23 + fraction) × 2^(exp-150)
	}
	if hi >= 255 || lo == 0 {
		hi = unbounded
	}
	return hi, q
}

// unbounded is spans' hi for a column holding a value no running sum may
// carry; noBit is q before any value sets a bit.
const (
	unbounded = 1 << 30
	noBit     = 1 << 20
)

// slidesWithin is the verdict on spans' bounds: every value is below
// 2^(hi-126), and a window holds at most 2^Len(window-1) of them.
func slidesWithin(hi, q, window int) bool {
	return hi-126+bits.Len(uint(window-1)) <= q+53
}

// State is where a detection pass stands at the top of one round: all it
// carries from the rounds before. DetectFrom hands back the state at a
// requested round, so a later pass over a longer series that agrees with
// this one before that round can resume there instead of at round 0. The
// zero State is not a start; pass nil for that.
type State struct {
	round int
	// Detect's three running sums over the measured rounds of
	// [round-1-window, round-1), their count, its month cursor and the
	// zero-BGP ongoing flag.
	sumBGP, sumFBS, sumIPS float64
	n, month, monthEnd     int
	ongoingZeroBGP         bool
	// The open outage, if any, and the number of outages closed before round.
	open   bool
	cur    Outage
	closed int
	// exact is the running-sum verdict the pass ran under; hi and q are
	// spans' bounds over each column's values before round.
	exact bool
	hi, q [3]int
}

// Round returns the round s stands at: the first one a resumed pass evaluates.
func (s *State) Round() int { return s.round }

// resume starts a pass over rounds rounds at from (nil: round 0): a fresh
// Detection holding prev's flags before from's round and the outages prev
// had closed there. Its arrays are new, never prev's, because readers may
// still hold prev.
func resume(prev *Detection, from *State, rounds int) *Detection {
	d := &Detection{Flags: make([]Kind, rounds)}
	if from != nil {
		copy(d.Flags, prev.Flags[:from.round])
		if from.closed > 0 {
			d.Outages = append(make([]Outage, 0, len(prev.Outages)+1), prev.Outages[:from.closed]...)
		}
	}
	return d
}

// Detect runs outage detection for one entity series in one pass: the three
// seven-day baselines are running sums stepped once per round, bit-identical
// to MovingAverage at every round — which a series failing the spans bound
// gets.
func Detect(es *EntitySeries, cfg Config) *Detection {
	d, _ := DetectFrom(es, cfg, nil, nil, -1)
	return d
}

// DetectFrom is Detect resumed: from is the state an earlier DetectFrom at
// cfg returned alongside prev, over a series that agrees with es on every
// value, missing flag and IPS month validity before from's round. It
// evaluates only the rounds from there on, and returns the detection of the
// whole of es, equal to Detect's, with the state at round mark (nil unless
// mark is one of the rounds from from's on). A nil from runs from round 0;
// so does a pass whose running-sum verdict differs from the one from ran
// under.
func DetectFrom(es *EntitySeries, cfg Config, prev *Detection, from *State, mark int) (*Detection, *State) {
	rounds := len(es.BGP)
	window := cfg.WindowRounds
	if window <= 0 {
		window = es.TL.RoundsPerWeek()
	}
	st := State{q: [3]int{noBit, noBit, noBit}}
	if from != nil && from.round <= rounds {
		st = *from
	} else {
		from = nil
	}
	start := st.round
	if mark < start || mark >= rounds {
		mark = -1
	}

	// The bounds at mark are the state's merged with the rounds up to mark;
	// the whole series' add the rest. Only the rounds this pass evaluates
	// are scanned.
	split := max(mark, start)
	var hi, q [3]int // at mark
	exact := true
	for c, col := range [3][]float32{es.BGP, es.FBS, es.IPS} {
		hi[c], q[c] = spans(col[start:split], st.hi[c], st.q[c])
		wholeHi, wholeQ := spans(col[split:], hi[c], q[c])
		exact = exact && slidesWithin(wholeHi, wholeQ, window)
	}
	if from != nil && exact != from.exact {
		from = nil // the prefix ran on the other side of the verdict
	}
	d := resume(prev, from, rounds)
	if from == nil {
		st = State{}
	}
	// The loop's carried values are loaded from st on either path (a run from
	// round 0 loads a zero State): one definition each keeps them in
	// registers through the loop.
	start = st.round
	sumBGP, sumFBS, sumIPS := st.sumBGP, st.sumFBS, st.sumIPS // over the n measured rounds of [r-window, r)
	n, month, monthEnd := st.n, st.month, st.monthEnd         // month is r's, re-read when r reaches monthEnd
	ongoingZeroBGP, inOutage, cur := st.ongoingZeroBGP, st.open, st.cur

	// A pass asked for a state runs in two legs, to mark and on from it, so
	// taking the state costs the round loop nothing.
	end := rounds
	if mark >= 0 {
		end = mark
	}
	var at *State
	for r := start; ; end = rounds {
		for ; r < end; r++ {
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
		if end == rounds {
			break
		}
		at = &State{
			round:  r,
			sumBGP: sumBGP, sumFBS: sumFBS, sumIPS: sumIPS,
			n: n, month: month, monthEnd: monthEnd,
			ongoingZeroBGP: ongoingZeroBGP,
			open:           inOutage, cur: cur, closed: len(d.Outages),
			exact: exact, hi: hi, q: q,
		}
	}
	if inOutage {
		d.Outages = append(d.Outages, cur)
	}
	return d, at
}
