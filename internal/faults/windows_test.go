package faults

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

// firstActive is the per-packet linear scan that windowAt's span memo
// replaced, kept as the reference it is held to.
func firstActive(ws []Window, now time.Time) (Window, bool) {
	for _, w := range ws {
		if w.active(now) {
			return w, true
		}
	}
	return Window{}, false
}

var windowBase = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// seededWindows draws a window set over [windowBase, windowBase+2h] with
// everything that can trip a span: overlaps of different kinds, shared and
// adjacent edges, zero-length and one-nanosecond windows, sub-second edges,
// and flaps whose odd periods do not divide their windows.
func seededWindows(r *rand.Rand) []Window {
	periods := []time.Duration{0, 7 * time.Second, 13*time.Second + 1, 90 * time.Second, time.Hour, 1}
	ws := make([]Window, 1+r.Intn(8))
	for i := range ws {
		from := windowBase.Add(time.Duration(r.Intn(7200)) * time.Second)
		if r.Intn(3) == 0 {
			from = from.Add(time.Duration(r.Intn(1000)) * time.Millisecond)
		}
		if i > 0 {
			switch r.Intn(6) {
			case 0:
				from = ws[i-1].To // adjacent
			case 1:
				from = ws[i-1].From // same start
			}
		}
		dur := time.Duration(r.Intn(3600)) * time.Second
		switch r.Intn(6) {
		case 0:
			dur = 0
		case 1:
			dur = 1
		}
		ws[i] = Window{From: from, To: from.Add(dur), Kind: Kind(r.Intn(5)), Period: periods[r.Intn(len(periods))]}
	}
	return ws
}

// checkWindowAt asks one Transport for every time in order and compares each
// answer with the reference scan.
func checkWindowAt(t *testing.T, ws []Window, times []time.Time) {
	t.Helper()
	tr := &Transport{prof: Profile{Windows: ws}}
	for i, now := range times {
		got, gotOK := tr.windowAt(now)
		want, wantOK := firstActive(ws, now)
		if got != want || gotOK != wantOK {
			t.Fatalf("query %d at %s: windowAt = (%+v, %v), linear scan (%+v, %v)\nwindows: %+v",
				i, now.Format(time.RFC3339Nano), got, gotOK, want, wantOK, ws)
		}
	}
}

func TestWindowAtMatchesLinearScan(t *testing.T) {
	at := func(d time.Duration) time.Time { return windowBase.Add(d) }
	fixed := map[string][]Window{
		"none": nil,
		"shadowed": { // the stall never wins while the blackout is active
			{From: at(10 * time.Minute), To: at(30 * time.Minute), Kind: Blackout},
			{From: at(20 * time.Minute), To: at(40 * time.Minute), Kind: Stall},
		},
		"flap over a window": {
			{From: at(0), To: at(time.Hour), Kind: Flap, Period: 7 * time.Minute},
			{From: at(5 * time.Minute), To: at(50 * time.Minute), Kind: RecvErrors},
		},
		"zero-length, adjacent, inverted": {
			{From: at(time.Minute), To: at(time.Minute), Kind: Blackout},
			{From: at(2 * time.Minute), To: at(3 * time.Minute), Kind: SendErrors},
			{From: at(3 * time.Minute), To: at(4 * time.Minute), Kind: Stall},
			{From: at(6 * time.Minute), To: at(5 * time.Minute), Kind: Blackout},
		},
	}
	var monotone []time.Time
	for d := -2 * time.Minute; d <= 62*time.Minute; d += 1700 * time.Millisecond {
		monotone = append(monotone, at(d))
	}
	for name, ws := range fixed {
		t.Run(name, func(t *testing.T) { checkWindowAt(t, ws, monotone) })
	}

	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		ws := seededWindows(r)
		var times []time.Time
		for d := -time.Minute; d <= 3*time.Hour+time.Minute; d += time.Duration(1+r.Intn(40)) * 997 * time.Millisecond {
			times = append(times, at(d))
		}
		for _, w := range ws { // every edge and its neighbouring nanoseconds
			times = append(times, w.From.Add(-1), w.From, w.From.Add(1), w.To.Add(-1), w.To, w.To.Add(1))
		}
		n := len(times)
		for i := 0; i < n; i++ { // then the same instants again in random order
			times = append(times, times[r.Intn(n)])
		}
		checkWindowAt(t, ws, times)
	}
}

// FuzzWindowAt lets the fuzzer pick the window set (by seed) and an arbitrary,
// non-monotone sequence of clock readings: each four bytes are a signed
// millisecond offset from windowBase, the fifth a nanosecond nudge.
func FuzzWindowAt(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0, 0, 0, 0x36, 0xee, 0x80, 1, 0xff, 0xff, 0xff, 0xff, 3})
	f.Add(int64(42), []byte{0, 0x6d, 0xdd, 0, 0, 0, 0x6d, 0xdd, 1, 0, 0, 0x1b, 0x77, 0x40, 2})
	f.Fuzz(func(t *testing.T, seed int64, clock []byte) {
		ws := seededWindows(rand.New(rand.NewSource(seed)))
		var times []time.Time
		for ; len(clock) >= 5; clock = clock[5:] {
			ms := int32(binary.BigEndian.Uint32(clock))
			times = append(times, windowBase.Add(time.Duration(ms)*time.Millisecond+time.Duration(clock[4])))
		}
		checkWindowAt(t, ws, times)
	})
}
