package serve

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"countrymon/internal/timeline"
)

// runSource is a Source of precomputed columns: runs, short and long, of the
// cells the formatter can get wrong — ±0, NaNs of two payloads, ±Inf, both
// sides of the switch of 'g' to exponent form, fractions and random bits —
// with random missing rounds and IPS month validity.
type runSource struct {
	bgp, fbs, ips []float32
	missing       []bool
	valid         []bool
}

var runPalette = []float32{0, math.Float32frombits(1 << 31), float32(math.NaN()), math.Float32frombits(0xffc00001),
	float32(math.Inf(1)), float32(math.Inf(-1)), 1, 7, 999999, 1e6, 1234567, 0.37, -2.5, 3e-7, math.MaxFloat32}

func newRunSource(tl *timeline.Timeline, seed int) runSource {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := tl.NumRounds()
	col := func() []float32 {
		c := make([]float32, 0, n)
		for len(c) < n {
			v := runPalette[rng.Intn(len(runPalette))]
			if rng.Intn(5) == 0 {
				v = math.Float32frombits(rng.Uint32())
			}
			for k := 1 + rng.Intn(1<<rng.Intn(8)); k > 0 && len(c) < n; k-- {
				c = append(c, v)
			}
		}
		return c
	}
	s := runSource{bgp: col(), fbs: col(), ips: col(), missing: make([]bool, n), valid: make([]bool, tl.NumMonths())}
	for r := range s.missing {
		s.missing[r] = rng.Intn(9) == 0
	}
	for m := range s.valid {
		s.valid[m] = rng.Intn(2) == 0
	}
	return s
}

func (s runSource) Sample(r int) (float32, float32, float32, bool) {
	return s.bgp[r], s.fbs[r], s.ips[r], s.missing[r]
}

func (s runSource) IPSValidMonth(m int) bool { return s.valid[m] }

// fuzzTimeline is one of three starts — before the epoch (negative seconds,
// the sign, the digits shrinking towards 0), the weeks around
// 2001-09-09T01:46:40Z (unix seconds grow a digit) and the campaign's —
// over one to three months, at an interval of 4 h to 8 h that is rarely a
// whole second.
func fuzzTimeline(kind, months uint8, stepMs uint32) *timeline.Timeline {
	starts := []time.Time{
		time.Date(1969, 12, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2001, 8, 20, 0, 0, 0, 0, time.UTC),
		time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC),
	}
	start := starts[int(kind)%len(starts)]
	interval := 4*time.Hour + time.Duration(stepMs%(4*3600*1000))*time.Millisecond
	return timeline.New(start, start.AddDate(0, 1+int(months)%3, 0), interval)
}

// checkTimeColumn holds the store's time column to its discipline: one offset
// per sealed round, and room for exactly the rest of the watermark's month:
// no less, or sealing it would reallocate, and no more, or it already did.
func checkTimeColumn(t *testing.T, st *Store, step string) {
	t.Helper()
	tl, wm := st.tl, st.Watermark()
	if len(st.timeOff) != wm+1 {
		t.Fatalf("%s: %d time offsets at watermark %d", step, len(st.timeOff), wm)
	}
	if wm == 0 {
		return
	}
	_, n := tl.MonthRounds(tl.MonthOfRound(wm))
	need := 0
	for r := wm; r < n; r++ {
		need += len(strconv.FormatInt(tl.Time(r).Unix(), 10)) + 1
	}
	if cap(st.timeOff) != n+1 || cap(st.timeText)-len(st.timeText) != need {
		t.Fatalf("%s: the time column holds %d offsets and %d spare bytes, rounds up to %d need %d and %d",
			step, cap(st.timeOff), cap(st.timeText)-len(st.timeText), n, n+1, need)
	}
}

// FuzzSeriesBodyMatchesOracle holds every /v1/series body, byte for byte, to
// refSeriesBody — every cell through AppendFloat, every time through a
// per-row Unix() — on random timelines and columns, under a random schedule
// of Register, AdvanceTo jumps across months and single-round Advances
// (re-publishes and sealed no-ops included), at random windows after every
// step. Each step is two bytes: the operation and its argument.
func FuzzSeriesBodyMatchesOracle(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint32(7_200_000), []byte{0, 1, 1, 130, 2, 2, 0, 9, 1, 200, 2, 1, 1, 255})
	f.Add(uint8(1), uint8(2), uint32(1_234_567), []byte{1, 40, 0, 3, 1, 90, 2, 3, 2, 0, 0, 4, 1, 255, 1, 255})
	f.Add(uint8(2), uint8(2), uint32(0), []byte{0, 5, 0, 6, 1, 120, 2, 2, 2, 2, 1, 1, 3, 77, 1, 250, 2, 1})
	f.Add(uint8(0), uint8(0), uint32(999), []byte{1, 3, 0, 11, 2, 0, 2, 3, 1, 110, 0, 12, 1, 255})
	f.Add(uint8(1), uint8(1), uint32(5_400_500), []byte{0, 8, 1, 1, 1, 60, 1, 60, 3, 200, 2, 2, 1, 255})
	// At 6 h, round 80 is 1969-12-21T00:00Z, -950 400 s; the jump to round
	// 130, in January, grows the column over rounds whose first and last
	// print seven bytes wide, and past 0 between them.
	f.Add(uint8(0), uint8(1), uint32(7_200_000), []byte{0, 2, 1, 80, 1, 50, 2, 2})
	f.Fuzz(func(t *testing.T, kind, months uint8, stepMs uint32, steps []byte) {
		if len(steps) > 32 {
			return
		}
		tl := fuzzTimeline(kind, months, stepMs)
		st := NewStore(tl)
		s := NewServer(st)
		n := 0
		for i := 0; i+1 < len(steps); i += 2 {
			arg := int(steps[i+1])
			wm := st.Watermark()
			var step string
			switch steps[i] % 4 {
			case 0:
				if n == 4 {
					continue
				}
				if _, err := st.Register("asn", strconv.Itoa(n), newRunSource(tl, arg+256*n), nil); err != nil {
					t.Fatal(err)
				}
				n++
				step = "Register"
			case 1:
				_ = st.AdvanceTo(wm + arg) // past the end: an error, and nothing moves
				step = "AdvanceTo(" + strconv.Itoa(wm+arg) + ")"
			case 2:
				_ = st.Advance(wm - 2 + arg%4) // sealed, re-published, next, one ahead
				step = "Advance(" + strconv.Itoa(wm-2+arg%4) + ")"
			case 3:
				step = "render"
			}
			checkTimeColumn(t, st, step)
			wm = st.Watermark()
			since := arg * (wm + 1) / 256
			for _, e := range st.Entities() {
				for _, w := range [][3]int{{0, 0, DefaultSeriesLimit}, {since, arg % 7, 1 + arg%97}, {max(wm-1, 0), 0, 12}} {
					q := "entity=" + e.Key + "&since=" + strconv.Itoa(w[0]) + "&offset=" + strconv.Itoa(w[1]) + "&limit=" + strconv.Itoa(w[2])
					lo := min(w[0], wm)
					start := lo + min(w[1], wm-lo)
					end := min(start+w[2], wm)
					want := refSeriesBody(e, tl, wm, wm-lo, w[1], w[2], start, end)
					scratch := []byte(`{"stale":"scratch bytes a render must overwrite"}`)[:0]
					if got, _, _, _ := s.renderSeries(scratch, q); !bytes.Equal(got, want) {
						t.Fatalf("after %s at watermark %d, %s:\n%s\nwant\n%s", step, wm, q, got, want)
					}
				}
			}
		}
	})
}
