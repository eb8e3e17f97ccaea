package signals

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refMovingAverage and refDetect are the detection Detect replaced — every
// baseline re-summed over its whole window at every round, the IPS month
// read from the calendar — kept verbatim as the oracle the one-pass Detect
// must match bit for bit.
func refMovingAverage(vals []float32, missing []bool, r, window int) (float64, bool) {
	lo := r - window
	if lo < 0 {
		lo = 0
	}
	sum, n := 0.0, 0
	for i := lo; i < r; i++ {
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

func refDetect(es *EntitySeries, cfg Config) *Detection {
	rounds := es.BGP.Len()
	window := cfg.WindowRounds
	if window <= 0 {
		window = es.TL.RoundsPerWeek()
	}
	d := &Detection{Flags: make([]Kind, rounds)}
	bgpVals, fbsVals, ipsVals := es.BGP.flat(), es.FBS.flat(), es.IPS.flat()

	ongoingZeroBGP := false
	for r := 0; r < rounds; r++ {
		if es.Missing[r] {
			continue
		}
		var flags Kind

		maBGP, okBGP := refMovingAverage(bgpVals, es.Missing, r, window)
		maFBS, okFBS := refMovingAverage(fbsVals, es.Missing, r, window)
		maIPS, okIPS := refMovingAverage(ipsVals, es.Missing, r, window)

		ipsBelow := func(frac float64) bool {
			return okIPS && maIPS >= cfg.MinBaseline && float64(es.IPS.At(r)) < frac*maIPS
		}

		if okBGP && maBGP >= cfg.MinBaseline && float64(es.BGP.At(r)) < cfg.BGPFrac*maBGP {
			flags |= SignalBGP
		}
		if okFBS && maFBS >= cfg.MinBaseline && float64(es.FBS.At(r)) < cfg.FBSFrac*maFBS {
			fires := true
			if cfg.FBSRequiresIPSBelow > 0 && !ipsBelow(cfg.FBSRequiresIPSBelow) {
				fires = false
			}
			if cfg.AvailabilitySensing && okIPS && maIPS > 0 &&
				float64(es.IPS.At(r)) >= 0.98*maIPS {
				fires = false
			}
			if fires {
				flags |= SignalFBS
			}
		}
		if es.IPSValidMonth[es.TL.MonthIndex(es.TL.Time(r))] && ipsBelow(cfg.IPSFrac) {
			flags |= SignalIPS
		}

		hadBGP := okBGP && maBGP >= cfg.MinBaseline
		if es.BGP.At(r) == 0 && (hadBGP || ongoingZeroBGP) {
			if flags == 0 {
				flags |= SignalBGP
			}
			ongoingZeroBGP = true
		} else if es.BGP.At(r) > 0 {
			ongoingZeroBGP = false
		}
		d.Flags[r] = flags
	}

	inOutage := false
	var cur Outage
	flush := func(end int) {
		if inOutage {
			cur.End = end
			d.Outages = append(d.Outages, cur)
			inOutage = false
		}
	}
	for r := 0; r < rounds; r++ {
		if es.Missing[r] {
			continue
		}
		if d.Flags[r] != 0 {
			if !inOutage {
				cur = Outage{Start: r}
				inOutage = true
			}
			cur.Signals |= d.Flags[r]
			if es.BGP.At(r) == 0 {
				cur.Ongoing = true
			}
			cur.End = r + 1
		} else if inOutage {
			flush(cur.End)
		}
	}
	flush(cur.End)
	return d
}

// flatSeries is syntheticSeries without its one-round minimum: rounds may be
// 0 (the timeline then has one round the series does not use).
func flatSeries(rounds int, bgp, fbs, ips float32) *EntitySeries {
	if rounds > 0 {
		return syntheticSeries(rounds, bgp, fbs, ips)
	}
	es := syntheticSeries(1, bgp, fbs, ips)
	es.BGP, es.FBS, es.IPS, es.Missing = es.BGP.View(0), es.FBS.View(0), es.IPS.View(0), es.Missing[:0]
	return es
}

func requireMatchesOracle(t *testing.T, es *EntitySeries, cfg Config) *Detection {
	t.Helper()
	got, want := Detect(es, cfg), refDetect(es, cfg)
	if !reflect.DeepEqual(got.Flags, want.Flags) {
		for r := range want.Flags {
			if got.Flags[r] != want.Flags[r] {
				t.Fatalf("round %d of %d (window %d): flags %v, oracle %v",
					r, len(want.Flags), cfg.WindowRounds, got.Flags[r], want.Flags[r])
			}
		}
		t.Fatalf("flags length %d, oracle %d", len(got.Flags), len(want.Flags))
	}
	if !reflect.DeepEqual(got.Outages, want.Outages) {
		t.Fatalf("outages %+v, oracle %+v", got.Outages, want.Outages)
	}
	return got
}

func TestDetectMatchesOracleTable(t *testing.T) {
	withWindow := func(cfg Config, w int) Config { cfg.WindowRounds = w; return cfg }
	dip := func(es *EntitySeries, lo, hi int, bgp, fbs, ips float32) {
		for r := lo; r < hi; r++ {
			es.BGP.Set(r, bgp)
			es.FBS.Set(r, fbs)
			es.IPS.Set(r, ips)
		}
	}
	miss := func(es *EntitySeries, lo, hi int) {
		for r := lo; r < hi; r++ {
			es.Missing[r] = true
		}
	}
	cases := []struct {
		name  string
		es    func() *EntitySeries
		cfg   Config
		check func(t *testing.T, d *Detection)
	}{
		{
			name: "zero-BGP ongoing across a missing run",
			es: func() *EntitySeries {
				es := syntheticSeries(700, 10, 8, 500)
				dip(es, 200, 600, 0, 0, 0)
				// Longer than the window: the baseline is gone when data
				// returns, only the ongoing flag keeps the outage open.
				miss(es, 260, 400)
				return es
			},
			cfg: ASConfig(),
			check: func(t *testing.T, d *Detection) {
				if len(d.Outages) != 1 || d.Outages[0] != (Outage{Start: 200, End: 600, Signals: SignalBGP | SignalFBS | SignalIPS, Ongoing: true}) {
					t.Errorf("outages = %+v, want one ongoing [200,600)", d.Outages)
				}
			},
		},
		{
			name: "FBS needs IPS below 95%",
			es: func() *EntitySeries {
				es := syntheticSeries(400, 10, 10, 500)
				dip(es, 200, 210, 10, 5, 480) // IPS at 96 %: FBS must not fire
				dip(es, 300, 310, 10, 5, 460) // IPS at 92 %: FBS fires
				return es
			},
			cfg: ASConfig(),
			check: func(t *testing.T, d *Detection) {
				if d.Flags[205] != 0 || d.Flags[305] != SignalFBS {
					t.Errorf("flags[205] = %v, flags[305] = %v, want none and FBS", d.Flags[205], d.Flags[305])
				}
			},
		},
		{
			name: "availability sensing",
			es: func() *EntitySeries {
				es := syntheticSeries(400, 10, 10, 500)
				dip(es, 200, 210, 10, 5, 495) // addresses kept answering
				return es
			},
			cfg: Config{BGPFrac: 0.95, FBSFrac: 0.8, IPSFrac: 0.8, AvailabilitySensing: true, MinBaseline: 0.5},
			check: func(t *testing.T, d *Detection) {
				if len(d.Outages) != 0 {
					t.Errorf("outages = %+v, want none", d.Outages)
				}
			},
		},
		{
			name: "availability sensing off",
			es: func() *EntitySeries {
				es := syntheticSeries(400, 10, 10, 500)
				dip(es, 200, 210, 10, 5, 495)
				return es
			},
			cfg: Config{BGPFrac: 0.95, FBSFrac: 0.8, IPSFrac: 0.8, MinBaseline: 0.5},
			check: func(t *testing.T, d *Detection) {
				if d.Flags[205] != SignalFBS {
					t.Errorf("flags[205] = %v, want FBS", d.Flags[205])
				}
			},
		},
		{
			name: "below MinBaseline",
			es: func() *EntitySeries {
				es := syntheticSeries(400, 1, 1, 20)
				dip(es, 200, 210, 0, 0, 0)
				return es
			},
			cfg: RegionConfig(), // MinBaseline 2 > the BGP and FBS level
			check: func(t *testing.T, d *Detection) {
				if d.Flags[205] != SignalIPS {
					t.Errorf("flags[205] = %v, want IPS alone", d.Flags[205])
				}
			},
		},
		{
			name: "fewer than window/4 measured",
			es: func() *EntitySeries {
				es := syntheticSeries(400, 10, 8, 500)
				miss(es, 100, 180) // 80 of the 84 rounds before round 184
				dip(es, 184, 190, 0, 0, 0)
				dip(es, 300, 306, 0, 0, 0)
				return es
			},
			cfg: ASConfig(),
			check: func(t *testing.T, d *Detection) {
				if len(d.Outages) != 1 || d.Outages[0].Start != 300 {
					t.Errorf("outages = %+v, want only the one at 300", d.Outages)
				}
			},
		},
		{name: "window 1", cfg: withWindow(ASConfig(), 1), es: func() *EntitySeries {
			es := syntheticSeries(300, 10, 8, 500)
			dip(es, 100, 110, 3, 2, 100)
			miss(es, 104, 106)
			return es
		}},
		{name: "window 2", cfg: withWindow(ASConfig(), 2), es: func() *EntitySeries {
			es := syntheticSeries(300, 10, 8, 500)
			dip(es, 100, 110, 3, 2, 100)
			miss(es, 104, 106)
			return es
		}},
		{name: "window 84", cfg: withWindow(RegionConfig(), 84), es: func() *EntitySeries {
			es := syntheticSeries(300, 10, 8, 500)
			dip(es, 100, 110, 3, 2, 100)
			return es
		}},
		{name: "window beyond the series", cfg: withWindow(ASConfig(), 1000), es: func() *EntitySeries {
			es := syntheticSeries(300, 10, 8, 500)
			dip(es, 280, 290, 3, 2, 100) // 280 ≥ 1000/4 measured rounds
			return es
		}, check: func(t *testing.T, d *Detection) {
			if len(d.Outages) != 1 || d.Outages[0].Start != 280 {
				t.Errorf("outages = %+v, want one at 280", d.Outages)
			}
		}},
		{name: "empty series", cfg: ASConfig(), es: func() *EntitySeries { return flatSeries(0, 0, 0, 0) }},
		{name: "one round", cfg: ASConfig(), es: func() *EntitySeries { return flatSeries(1, 0, 0, 0) }},
		{name: "one missing round", cfg: ASConfig(), es: func() *EntitySeries {
			es := flatSeries(1, 10, 8, 500)
			es.Missing[0] = true
			return es
		}},
		{name: "all missing", cfg: ASConfig(), es: func() *EntitySeries {
			es := syntheticSeries(200, 10, 8, 500)
			miss(es, 0, 200)
			return es
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := requireMatchesOracle(t, tc.es(), tc.cfg)
			if tc.check != nil {
				tc.check(t, d)
			}
		})
	}
}

// randomOracleSeries draws the shapes the pipeline produces — AS counts, dips
// to count × 0.3, share-weighted regional sums — with missing runs up to three
// windows long, zero-BGP stretches and random IPS month validity.
func randomOracleSeries(rng *rand.Rand) (*EntitySeries, Config) {
	rounds := rng.Intn(3001)
	es := flatSeries(rounds, 0, 0, 0)
	cfg := ASConfig()
	if rng.Intn(2) == 0 {
		cfg = RegionConfig()
	}
	switch rng.Intn(8) {
	case 0:
		cfg.WindowRounds = 1 + rng.Intn(3)
	case 1:
		cfg.WindowRounds = 12 + rng.Intn(100)
	case 2:
		cfg.WindowRounds = rounds + rng.Intn(50)
	}
	window := cfg.WindowRounds
	if window <= 0 {
		window = es.TL.RoundsPerWeek()
	}

	levels := []float32{0, 1, 3, 20, 500, 60000}
	base := [3]float32{levels[rng.Intn(len(levels))], levels[rng.Intn(len(levels))], levels[rng.Intn(len(levels))]}
	regional := rng.Intn(3) == 0
	cols := [3]*Column{&es.BGP, &es.FBS, &es.IPS}
	for r := 0; r < rounds; r++ {
		for c, col := range cols {
			v := base[c]
			if v > 0 && rng.Intn(4) == 0 {
				v += float32(rng.Intn(int(v)/10 + 2))
			}
			if regional && c == 2 {
				// A sum of float32(count) × float32(share) products.
				v = 0
				for k := 0; k < 4; k++ {
					v += float32(rng.Intn(256)) * float32(rng.Float64())
				}
			}
			col.Set(r, v)
		}
	}
	for i := rng.Intn(8); i > 0 && rounds > 0; i-- {
		lo := rng.Intn(rounds)
		hi := min(rounds, lo+1+rng.Intn(2*window+1))
		c := rng.Intn(3)
		for r := lo; r < hi; r++ {
			switch rng.Intn(3) {
			case 0:
				cols[c].Set(r, float32(float64(cols[c].At(r))*0.3))
			case 1:
				cols[c].Set(r, 0)
			default:
				es.BGP.Set(r, 0)
				es.FBS.Set(r, 0)
				es.IPS.Set(r, 0)
			}
		}
	}
	for i := rng.Intn(5); i > 0 && rounds > 0; i-- {
		lo := rng.Intn(rounds)
		hi := min(rounds, lo+1+rng.Intn(3*window+1))
		for r := lo; r < hi; r++ {
			es.Missing[r] = true
		}
	}
	for r := 0; r < rounds; r++ {
		if rng.Intn(50) == 0 {
			es.Missing[r] = true
		}
	}
	for m := range es.IPSValidMonth {
		es.IPSValidMonth[m] = rng.Intn(4) != 0
	}
	return es, cfg
}

func TestDetectMatchesOracleRandom(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	rng := rand.New(rand.NewSource(18))
	fallbacks := 0
	for i := 0; i < n; i++ {
		es, cfg := randomOracleSeries(rng)
		requireMatchesOracle(t, es, cfg)
		window := cfg.WindowRounds
		if window <= 0 {
			window = es.TL.RoundsPerWeek()
		}
		if !slidesExactly(&es.BGP, window) || !slidesExactly(&es.FBS, window) || !slidesExactly(&es.IPS, window) {
			fallbacks++
		}
	}
	// The generator draws what the pipeline produces, and the pipeline's
	// series take the running sum: a generator that mostly fell back would
	// be testing the oracle against itself.
	if fallbacks*10 > n {
		t.Errorf("%d of %d random series fell back to per-window sums", fallbacks, n)
	}
}

// TestSlidesExactly pins the guard to what its doc comment says, cell by
// cell, and each edge to the oracle.
func TestSlidesExactly(t *testing.T) {
	const window = 84
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	negZero := math.Float32frombits(1 << 31)
	subnormal := math.Float32frombits(1) // 2^-149
	cases := []struct {
		name   string
		window int
		cells  []float32 // tiled over the series
		want   bool
	}{
		{"counts", window, []float32{0, 1, 17, 60000}, true},
		{"all zero", window, []float32{0}, true},
		{"negative zero", window, []float32{negZero, 5, 0}, true},
		{"fractions", window, []float32{0.3, 1234.567, 18.9}, true},
		{"negative cell", window, []float32{10, -1, 10}, false},
		{"NaN", window, []float32{10, nan, 10}, false},
		{"+Inf", window, []float32{10, inf, 10}, false},
		{"+Inf alone", window, []float32{inf}, false},
		{"NaN alone", window, []float32{nan}, false},
		{"-Inf", window, []float32{10, -inf, 10}, false},
		{"MaxFloat32 alone", window, []float32{math.MaxFloat32}, true},
		{"MaxFloat32 beside 1", window, []float32{math.MaxFloat32, 1}, false},
		{"subnormal alone", window, []float32{subnormal, 3 * subnormal}, false},
		{"subnormal beside 2^24", window, []float32{subnormal, 1 << 24}, false},
		// Four values below 2^51 sum to less than 2^53 = 2^(q+53) with
		// q = 0; four below 2^52 need not.
		{"53-bit span", 4, []float32{1, 1 << 50}, true},
		{"54-bit span", 4, []float32{1, 1 << 51}, false},
		// The same bound moved by the lowest set bit: q = -1.
		{"53-bit span from a half", 4, []float32{0.5, 1 << 49}, true},
		{"54-bit span from a half", 4, []float32{0.5, 1 << 50}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			es := flatSeries(400, 10, 8, 500)
			for r := range es.IPS.Len() {
				es.BGP.Set(r, tc.cells[r%len(tc.cells)])
				es.IPS.Set(r, tc.cells[(r+1)%len(tc.cells)])
			}
			for r := 150; r < 170; r++ {
				es.Missing[r] = true
			}
			if got := slidesExactly(&es.BGP, tc.window); got != tc.want {
				t.Errorf("slidesExactly = %v, want %v", got, tc.want)
			}
			cfg := ASConfig()
			cfg.WindowRounds = tc.window
			requireMatchesOracle(t, es, cfg)
		})
	}
}

// fuzzSeries decodes 13-byte records — three raw float32 bit patterns and a
// flag byte — into a series, so the fuzzer reaches every NaN payload,
// subnormal and sign the guard has to sort.
func fuzzSeries(data []byte, window uint8) (*EntitySeries, Config) {
	const rec = 13
	es := flatSeries(len(data)/rec, 0, 0, 0)
	for r := range es.BGP.Len() {
		p := data[r*rec:]
		es.BGP.Set(r, math.Float32frombits(binary.LittleEndian.Uint32(p)))
		es.FBS.Set(r, math.Float32frombits(binary.LittleEndian.Uint32(p[4:])))
		es.IPS.Set(r, math.Float32frombits(binary.LittleEndian.Uint32(p[8:])))
		es.Missing[r] = p[12]&1 != 0
		if p[12]&2 != 0 { // small counts, the common case, at fuzzing speed
			es.BGP.Set(r, float32(p[0]))
			es.FBS.Set(r, float32(p[4]))
			es.IPS.Set(r, float32(p[8]))
		}
	}
	for m := range es.IPSValidMonth {
		es.IPSValidMonth[m] = m%2 == 0
	}
	cfg := ASConfig()
	cfg.WindowRounds = int(window) // 0 = the seven-day default
	return es, cfg
}

func FuzzDetectMatchesOracle(f *testing.F) {
	counts := make([]byte, 0, 13*120)
	for r := 0; r < 120; r++ {
		flag := byte(2)
		if r%17 == 0 {
			flag |= 1
		}
		level := byte(40)
		if r > 80 && r < 90 {
			level = 3
		}
		counts = append(counts, 10, 0, 0, 0, 8, 0, 0, 0, level, 0, 0, 0, flag)
	}
	f.Add(counts, uint8(12))
	f.Add(counts, uint8(0))
	raw := binary.LittleEndian.AppendUint32(nil, math.Float32bits(float32(math.NaN())))
	raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(-3))
	raw = binary.LittleEndian.AppendUint32(raw, 1)
	raw = append(raw, 0)
	f.Add(append(append([]byte(nil), counts...), raw...), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, window uint8) {
		if len(data) > 13*2000 {
			return
		}
		es, cfg := fuzzSeries(data, window)
		requireMatchesOracle(t, es, cfg)
	})
}
