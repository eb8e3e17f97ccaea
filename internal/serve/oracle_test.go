package serve

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

// refMovingAverage and refDetect are signals' per-window detection as it was
// before the one-pass Detect — the copy of the oracle in
// internal/signals/detect_test.go that this package's bodies are held to.
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

func refDetect(es *signals.EntitySeries, cfg signals.Config) *signals.Detection {
	rounds := len(es.BGP)
	window := cfg.WindowRounds
	if window <= 0 {
		window = es.TL.RoundsPerWeek()
	}
	d := &signals.Detection{Flags: make([]signals.Kind, rounds)}

	ongoingZeroBGP := false
	for r := 0; r < rounds; r++ {
		if es.Missing[r] {
			continue
		}
		var flags signals.Kind

		maBGP, okBGP := refMovingAverage(es.BGP, es.Missing, r, window)
		maFBS, okFBS := refMovingAverage(es.FBS, es.Missing, r, window)
		maIPS, okIPS := refMovingAverage(es.IPS, es.Missing, r, window)

		ipsBelow := func(frac float64) bool {
			return okIPS && maIPS >= cfg.MinBaseline && float64(es.IPS[r]) < frac*maIPS
		}

		if okBGP && maBGP >= cfg.MinBaseline && float64(es.BGP[r]) < cfg.BGPFrac*maBGP {
			flags |= signals.SignalBGP
		}
		if okFBS && maFBS >= cfg.MinBaseline && float64(es.FBS[r]) < cfg.FBSFrac*maFBS {
			fires := true
			if cfg.FBSRequiresIPSBelow > 0 && !ipsBelow(cfg.FBSRequiresIPSBelow) {
				fires = false
			}
			if cfg.AvailabilitySensing && okIPS && maIPS > 0 &&
				float64(es.IPS[r]) >= 0.98*maIPS {
				fires = false
			}
			if fires {
				flags |= signals.SignalFBS
			}
		}
		if es.IPSValidMonth[es.TL.MonthIndex(es.TL.Time(r))] && ipsBelow(cfg.IPSFrac) {
			flags |= signals.SignalIPS
		}

		hadBGP := okBGP && maBGP >= cfg.MinBaseline
		if es.BGP[r] == 0 && (hadBGP || ongoingZeroBGP) {
			if flags == 0 {
				flags |= signals.SignalBGP
			}
			ongoingZeroBGP = true
		} else if es.BGP[r] > 0 {
			ongoingZeroBGP = false
		}
		d.Flags[r] = flags
	}

	inOutage := false
	var cur signals.Outage
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
				cur = signals.Outage{Start: r}
				inOutage = true
			}
			cur.Signals |= d.Flags[r]
			if es.BGP[r] == 0 {
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

// refFloatCol is the float column as it was: every cell through AppendFloat.
func refFloatCol(b []byte, vals []float32) []byte {
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return b
}

// refSeriesBody and refOutagesBody spell the two response layouts out again
// over the reference column, the calendar month and refDetect.
func refSeriesBody(e *Entity, tl *timeline.Timeline, wm, total, offset, limit, start, end int) []byte {
	ints := func(b []byte, name string, v int) []byte {
		return strconv.AppendInt(append(b, `,"`+name+`":`...), int64(v), 10)
	}
	b := strconv.AppendQuote([]byte(`{"entity":`), e.Key)
	b = ints(b, "watermark", wm)
	b = ints(b, "total", total)
	b = ints(b, "offset", offset)
	b = ints(b, "limit", limit)
	b = ints(b, "start_round", start)
	b = ints(b, "count", end-start)
	bools := func(b []byte, name string, at func(r int) bool) []byte {
		b = append(b, `],"`+name+`":[`...)
		for r := start; r < end; r++ {
			if r > start {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, at(r))
		}
		return b
	}
	b = append(b, `,"time":[`...)
	for r := start; r < end; r++ {
		if r > start {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, tl.Time(r).Unix(), 10)
	}
	b = refFloatCol(append(b, `],"bgp":[`...), e.bgp[start:end])
	b = refFloatCol(append(b, `],"fbs":[`...), e.fbs[start:end])
	b = refFloatCol(append(b, `],"ips":[`...), e.ips[start:end])
	b = bools(b, "missing", func(r int) bool { return e.missing[r] })
	b = bools(b, "ips_valid", func(r int) bool { return e.ipsValid[tl.MonthIndex(tl.Time(r))] })
	return append(b, `]}`...)
}

func refOutagesBody(e *Entity, tl *timeline.Timeline, det *signals.Detection) []byte {
	b := strconv.AppendQuote([]byte(`{"entity":`), e.Key)
	b = strconv.AppendInt(append(b, `,"watermark":`...), int64(len(det.Flags)), 10)
	b = append(b, `,"outages":[`...)
	for i, o := range det.Outages {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"start_round":`...), int64(o.Start), 10)
		b = strconv.AppendInt(append(b, `,"end_round":`...), int64(o.End), 10)
		b = strconv.AppendInt(append(b, `,"start":`...), tl.Time(o.Start).Unix(), 10)
		b = strconv.AppendInt(append(b, `,"end":`...), tl.Time(o.End).Unix(), 10)
		b = strconv.AppendQuote(append(b, `,"signals":`...), kindToken(o.Signals))
		b = strconv.AppendBool(append(b, `,"ongoing":`...), o.Ongoing)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// dipSource is a synthetic entity with what detection and the cell formatter
// have to tell apart: dips to count × 0.3, total losses (the zero-BGP ongoing
// flag), missing runs longer than the window, IPS columns in the millions
// (exponent form) and share-weighted fractional ones.
type dipSource struct{ salt int }

func (s dipSource) Sample(r int) (bgp, fbs, ips float32, missing bool) {
	if (r+s.salt)%53 == 7 || ((r/120+s.salt)%5 == 0 && r%120 < 100) {
		return 0, 0, 0, true
	}
	base := float32(20 + s.salt%30)
	dip := float32(1)
	switch {
	case (r+s.salt*3)%97 < 5:
		dip = 0.3
	case (r+s.salt*7)%211 < 9:
		dip = 0
	}
	ips = base * 40 * dip
	switch s.salt % 4 {
	case 0:
		ips *= 900 // up to 1 764 000: both sides of the switch of 'g' at 1e6
	case 1:
		ips *= 0.37
	}
	return base * dip, (base - 4) * dip, ips, false
}

func (s dipSource) IPSValidMonth(m int) bool { return (m+s.salt)%3 != 0 }

// TestBodiesMatchOracle holds /v1/series and /v1/outages, byte for byte, to
// bodies built the old way — per-window detection, calendar months, every
// cell through AppendFloat — at a watermark inside month 0, one mid-month and
// one on a month boundary.
func TestBodiesMatchOracle(t *testing.T) {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(0, 3, 0), 2*time.Hour)
	if lo, _ := tl.MonthRounds(2); lo != 732 {
		t.Fatalf("month 2 starts at round %d, want 732", lo)
	}
	st := NewStore(tl)
	cfgs := []signals.Config{signals.ASConfig(), signals.RegionConfig()}
	for i := 0; i < 50; i++ {
		if _, err := st.Register("asn", strconv.Itoa(i), dipSource{salt: i * 13}, DetectWith(cfgs[i%2])); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(st)
	outages := 0
	for _, wm := range []int{200, 572, 732} {
		if err := st.AdvanceTo(wm); err != nil {
			t.Fatal(err)
		}
		for i, e := range st.Entities() {
			for _, q := range []struct {
				query              string
				offset, start, end int
			}{
				{"entity=" + e.Key, 0, 0, wm},
				{"entity=" + e.Key + "&offset=100&limit=300", 100, 100, min(400, wm)},
			} {
				limit := DefaultSeriesLimit
				if q.offset > 0 {
					limit = 300
				}
				rec := get(t, s, "/v1/series?"+q.query)
				want := refSeriesBody(e, tl, wm, wm, q.offset, limit, q.start, q.end)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("watermark %d, /v1/series?%s = %d:\n%s\nwant\n%s", wm, q.query, rec.Code, rec.Body.Bytes(), want)
				}
			}
			det := refDetect(e.view(tl, wm), cfgs[i%2])
			outages += len(det.Outages)
			rec := get(t, s, "/v1/outages?entity="+e.Key)
			if want := refOutagesBody(e, tl, det); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("watermark %d, /v1/outages?entity=%s = %d:\n%s\nwant\n%s", wm, e.Key, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}
	if outages < 500 {
		t.Errorf("the oracle found %d outages in all: too few to compare", outages)
	}
}

// TestAppendFloatColMatchesAppendFloat: the integer path and the repeat path
// print the bytes AppendFloat(v, 'g', -1, 32) prints, on every integer a
// float32 holds exactly, around the switch of 'g' to exponent form, off the
// integer path, and on runs of equal cells, where the bits decide what a
// repeat is: 0 and -0 are equal floats, and a NaN equals no float.
func TestAppendFloatColMatchesAppendFloat(t *testing.T) {
	check := func(vals []float32) {
		t.Helper()
		got, want := appendFloatCol(nil, vals), refFloatCol(nil, vals)
		if bytes.Equal(got, want) {
			return
		}
		for _, v := range vals {
			if g, w := appendFloatCol(nil, []float32{v}), refFloatCol(nil, []float32{v}); !bytes.Equal(g, w) {
				t.Fatalf("cell %v (bits %#x) prints %q, AppendFloat prints %q", v, math.Float32bits(v), g, w)
			}
		}
		t.Fatalf("columns differ though every cell matches:\n%s\nwant\n%s", got, want)
	}

	negZero := math.Float32frombits(1 << 31)
	nan, otherNaN := float32(math.NaN()), math.Float32frombits(0xffc00001)
	specials := []float32{0, negZero, 1, -1, 0.5, 1.5, 999998.5, 999999, -999999, 999999.5, 1e6, -1e6, 1e6 + 1, 1e7, 1 << 24, 1<<24 + 2,
		math.MaxFloat32, math.SmallestNonzeroFloat32, nan, otherNaN, float32(math.Inf(1)), float32(math.Inf(-1))}
	check(specials)

	// A run of every length from 1 to 64 of each special value, then a run
	// of the next one: the repeat copies the run's first cell, and the run
	// after it starts afresh.
	for i, v := range specials {
		next := specials[(i+1)%len(specials)]
		col := make([]float32, 0, 128)
		for n := 1; n <= 64; n++ {
			col = col[:0]
			for j := 0; j < 2*n; j++ {
				col = append(col, []float32{v, next}[j/n])
			}
			check(col)
		}
	}
	// Equal floats of other bits, and NaNs of other payloads, alternate.
	for _, pair := range [][2]float32{{0, negZero}, {negZero, 0}, {nan, otherNaN}, {nan, nan}} {
		col := make([]float32, 65)
		for i := range col {
			col[i] = pair[i%2]
		}
		check(col)
	}

	// Every integer up to 2^24, past which a float32 skips some; under
	// -short or the race detector, every integer the integer path can take
	// and a stride over the rest, which both sides hand to AppendFloat.
	const chunk = 1 << 12
	vals := make([]float32, 0, 3*chunk)
	for n := 0; n <= 1<<24; n++ {
		if n > 1e6+1 && (testing.Short() || raceEnabled) {
			n += 60
		}
		vals = append(vals, float32(n), -float32(n))
		if n <= 1e6 {
			vals = append(vals, float32(n)+0.5)
		}
		if len(vals) > 3*chunk-3 || n >= 1<<24 {
			check(vals)
			vals = vals[:0]
		}
	}

	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 1_000_000/chunk+1; i++ {
		vals = vals[:0]
		for j := 0; j < chunk; j++ {
			vals = append(vals, math.Float32frombits(rng.Uint32()))
		}
		check(vals)
	}
}

// TestDetectionMemoOncePerWatermark: with readers hammering one entity while
// a writer seals rounds, the detector runs at most once per watermark and no
// reader ever sees the detection shrink. A reader that sampled the watermark
// before queueing on the memo's mutex would recompute at its stale one.
func TestDetectionMemoOncePerWatermark(t *testing.T) {
	st := NewStore(testTimeline())
	var mu sync.Mutex
	runs := make(map[int]int)
	e, err := st.Register("asn", "1", patternSource{1}, func(es *signals.EntitySeries, prev *signals.Detection, from *signals.State, mark int) (*signals.Detection, *signals.State) {
		mu.Lock()
		runs[len(es.BGP)]++
		mu.Unlock()
		// Long enough for readers at older and newer watermarks to queue up
		// behind this one.
		for i := 0; i < 20; i++ {
			runtime.Gosched()
		}
		return signals.DetectFrom(es, signals.ASConfig(), prev, from, mark)
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := len(st.Detection(e).Flags)
				if n < last {
					t.Errorf("detection shrank from %d rounds to %d", last, n)
					return
				}
				last = n
			}
		}()
	}
	for r := 0; r < st.Timeline().NumRounds(); r++ {
		if err := st.Advance(r); err != nil {
			t.Error(err)
		}
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()

	if len(runs) == 0 {
		t.Fatal("the detector never ran")
	}
	for wm, n := range runs {
		if n != 1 {
			t.Errorf("detector ran %d times at watermark %d", n, wm)
		}
	}
}

// TestDetectionHeldAcrossSeal: a reader holding the detection of one
// watermark keeps it, element for element, while the next seal's memo
// resumes from it — over month boundaries and with outages open across the
// seal, whose next detection extends what the held one ends at its
// watermark. Under -race, a resume that wrote into the held arrays is also a
// race with the reader walking them.
func TestDetectionHeldAcrossSeal(t *testing.T) {
	tl := threeMonths(t)
	st := NewStore(tl)
	e, err := st.Register("asn", "1", dipSource{7}, DetectWith(signals.ASConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AdvanceTo(300); err != nil {
		t.Fatal(err)
	}
	extended := 0
	for wm := 300; wm < 800; wm++ {
		held := st.Detection(e)
		flags, outages := slices.Clone(held.Flags), slices.Clone(held.Outages)
		walked := make(chan int)
		go func() {
			n := 0
			for i := 0; i < 4; i++ {
				for _, f := range held.Flags {
					n += int(f)
				}
				for _, o := range held.Outages {
					n += o.End - o.Start
				}
			}
			walked <- n
		}()
		if err := st.Advance(wm); err != nil {
			t.Fatal(err)
		}
		next := st.Detection(e)
		<-walked
		if !slices.Equal(held.Flags, flags) || !slices.Equal(held.Outages, outages) {
			t.Fatalf("sealing round %d changed the detection a reader held", wm)
		}
		if k := len(held.Outages) - 1; k >= 0 && held.Outages[k].End == wm && len(next.Outages) > k && next.Outages[k].End > wm {
			extended++
		}
	}
	if extended == 0 {
		t.Fatal("no outage stayed open across a seal")
	}
}
