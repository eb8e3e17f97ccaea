package sim

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/power"
	"countrymon/internal/simnet"
)

// memoWorld is a small world whose every kind of state edge falls strictly
// inside a minute: event From/To, AS ActiveFrom/ActiveTo and — when start is
// itself off-minute — every round start and dynamic epoch. The power rule is
// armed (short backups under daily outages), so the state also moves from
// minute to minute with no edge near. It returns the world and its edges.
func memoWorld(t testing.TB, start time.Time, interval time.Duration) (*Scenario, []time.Time) {
	t.Helper()
	const days = 20
	off := func(d time.Duration) time.Time { return start.Add(d) }
	ases := []ASTraits{
		testAS(64500, "Alpha", netmodel.Kyiv, "100.64.0.0/23"),
		testAS(64501, "Beta", netmodel.Lviv, "100.64.2.0/24"),
		testAS(64502, "Gamma", netmodel.Kherson, "100.64.3.0/24"), // frontline: the per-day power hash
	}
	ases[1].ActiveFrom = off(26*time.Hour + 20*time.Second + 250*time.Millisecond)
	ases[1].ActiveTo = off(9*24*time.Hour + 3*time.Hour + 17*time.Minute + 20*time.Second)
	blockOf := ases[0].AS.Blocks()[1]
	events := []Event{
		{Name: "silent", Kind: EffectSilent, ASNs: []netmodel.ASN{64500},
			From: off(5*24*time.Hour + 12*time.Hour + 30*time.Second + 500*time.Millisecond),
			To:   off(5*24*time.Hour + 14*time.Hour + 17*time.Minute + 42*time.Second)},
		{Name: "dip", Kind: EffectIPSDrop, Magnitude: 0.5, Regions: []netmodel.Region{netmodel.Kyiv},
			From: off(7 * 24 * time.Hour).Truncate(time.Minute), // on a minute
			To:   off(8*24*time.Hour + time.Nanosecond)},
		{Name: "blip", Kind: EffectBGPDown, Blocks: []netmodel.BlockID{blockOf}, // both edges in one minute
			From: off(3*24*time.Hour + 10*time.Second).Truncate(time.Minute).Add(10 * time.Second),
			To:   off(3*24*time.Hour + 10*time.Second).Truncate(time.Minute).Add(30 * time.Second)},
		{Name: "reroute", Kind: EffectReroute, RTTDeltaMS: 40, ASNs: []netmodel.ASN{64502},
			From: off(11*24*time.Hour + 59*time.Second), To: off(12*24*time.Hour + time.Second)},
		{Name: "generators", Kind: EffectDiurnalOnly, ASNs: []netmodel.ASN{64501},
			From: off(2*24*time.Hour + 5*time.Second), To: off(4*24*time.Hour + 55*time.Second)},
	}
	spec := Spec{
		Cfg:    Config{Seed: 77, Interval: interval, Start: start, End: start.Add(days * 24 * time.Hour)},
		ASes:   ases,
		Events: events,
		Power:  power.Scripted(start, days+2, []power.Strike{{Day: 0, Days: days + 2, Hours: 9}}, 5),
	}
	for ai, tr := range ases {
		for i, blk := range tr.AS.Blocks() {
			spec.Blocks = append(spec.Blocks, BlockTraits{
				Block: blk, ASN: tr.AS.ASN, HomeRegion: tr.AS.HQ,
				Density: 120, RespRate: 0.8, DeclineTo: 0.7, Diurnal: true,
				Dynamic: ai == 0, GridSensitive: i%2 == 0, BackupHours: 0.5 + float32(i),
			})
		}
	}
	s, err := Assemble(spec)
	if err != nil {
		t.Fatal(err)
	}

	edges := []time.Time{start.Add(-30 * time.Minute), start.Add(-dynamicEpochLen)}
	for r := 0; r < s.TL.NumRounds(); r++ {
		edges = append(edges, s.TL.Time(r))
	}
	for k := 1; k <= days/14; k++ {
		edges = append(edges, start.Add(time.Duration(k)*dynamicEpochLen))
	}
	edges = append(edges, ases[1].ActiveFrom, ases[1].ActiveTo)
	for _, ev := range events {
		edges = append(edges, ev.From, ev.To)
	}
	return s, edges
}

// memoSweep lists the instants around every edge: the edge itself and its
// neighbouring nanoseconds, 1 s steps across ±90 s and 7 s steps across
// ±10 min.
func memoSweep(edges []time.Time) []time.Time {
	var out []time.Time
	for _, e := range edges {
		out = append(out, e.Add(-1), e, e.Add(1))
		for d := -90 * time.Second; d <= 90*time.Second; d += time.Second {
			out = append(out, e.Add(d))
		}
		for d := -10 * time.Minute; d <= 10*time.Minute; d += 7 * time.Second {
			out = append(out, e.Add(d))
		}
	}
	return out
}

// checkMemo holds BlockStateAt and the unmemoised stateAt to the oracle for
// every block at each instant, in the order given, reporting through fail.
func checkMemo(s *refWorld, times []time.Time, fail func(format string, args ...any)) {
	for _, at := range times {
		for bi := range s.blocks {
			want := s.refStateAt(bi, s.TL.Round(at), at)
			if got := s.BlockStateAt(bi, at); got != want {
				fail("block %d at %s: memoised %+v, oracle %+v", bi, at.Format(time.RFC3339Nano), got, want)
				return
			}
			if got := s.stateAt(bi, at); got != want {
				fail("block %d at %s: unmemoised %+v, oracle %+v", bi, at.Format(time.RFC3339Nano), got, want)
				return
			}
		}
	}
}

var memoGrids = []struct {
	name     string
	start    time.Time
	interval time.Duration
}{
	{"aligned", time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC), 4 * time.Hour},
	{"off-minute start", time.Date(2023, 3, 1, 0, 0, 13, 500e6, time.UTC), 4 * time.Hour},
	{"off-minute interval", time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC), 3*time.Hour + 7*time.Second},
}

func shuffled(times []time.Time, seed int64) []time.Time {
	out := append([]time.Time(nil), times...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestMemoMatchesOracle is the memo's exactness check: whatever order the
// instants around every edge are asked in, BlockStateAt answers what the
// oracle computes.
func TestMemoMatchesOracle(t *testing.T) {
	for _, g := range memoGrids {
		t.Run(g.name, func(t *testing.T) {
			s, edges := memoWorld(t, g.start, g.interval)
			if want := g.name == "aligned"; s.gridAligned != want {
				t.Fatalf("gridAligned = %v, want %v", s.gridAligned, want)
			}
			forward := memoSweep(edges)
			backward := make([]time.Time, len(forward))
			for i, at := range forward {
				backward[len(forward)-1-i] = at
			}
			ref := newRefWorld(s)
			for _, order := range [][]time.Time{forward, backward, shuffled(forward, 1)} {
				checkMemo(ref, order, t.Fatalf)
			}
		})
	}
}

// TestMemoConcurrent runs the same sweep from 8 goroutines that share one
// scenario, each in its own order (run it under -race): the memo slots and
// the rank tables are the shared state, and the responder path reads both
// the way simnet.WireServer's goroutines do.
func TestMemoConcurrent(t *testing.T) {
	g := memoGrids[1]
	s, edges := memoWorld(t, g.start, g.interval)
	times := memoSweep(edges)
	if testing.Short() {
		times = times[:len(times)/8]
	}
	resp := s.Responder()
	ref := newRefWorld(s)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := shuffled(times, int64(w))
			checkMemo(ref, order, t.Errorf)
			for _, at := range order[:len(order)/16] {
				for bi, blk := range s.Space.Blocks() {
					st := ref.refStateAt(bi, s.TL.Round(at), at)
					host := uint8(at.Unix()) // any host
					want := st.Routed && int(s.liveOrder.rank(bi, host)) < st.Resp
					if got := resp.Respond(blk.Addr(host), at).Kind == simnet.EchoReply; got != want {
						t.Errorf("block %d host %d at %s: answered %v, oracle %v", bi, host, at, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMemoSkipsUnsteadyMinutes pins the rule itself: a minute with an edge
// strictly inside is evaluated per call and never stored, its neighbours are.
func TestMemoSkipsUnsteadyMinutes(t *testing.T) {
	g := memoGrids[0]
	s, _ := memoWorld(t, g.start, g.interval)
	ev, _ := findEvent(s, "silent") // From is 30.5 s into its minute
	bi := s.Space.BlockIndex(s.asTraits[64500].AS.Blocks()[0])
	inside := ev.From.Truncate(time.Minute)
	for _, tc := range []struct {
		at     time.Time
		stored bool
	}{
		{inside.Add(-time.Minute), true},
		{inside, false},
		{inside.Add(59 * time.Second), false},
		{inside.Add(time.Minute), true},
		{g.start.Add(-time.Minute), false}, // before round 0
	} {
		s.BlockStateAt(bi, tc.at)
		if got := s.MemoHolds(bi, tc.at); got != tc.stored {
			t.Errorf("minute of %s stored = %v, want %v", tc.at.Format(time.RFC3339), got, tc.stored)
		}
	}
}

// TestStateIgnoresCallerZone: ground truth is a function of the instant, not
// of the zone the caller's clock happens to carry.
func TestStateIgnoresCallerZone(t *testing.T) {
	g := memoGrids[0]
	world, _ := memoWorld(t, g.start, g.interval)
	s := newRefWorld(world)
	zones := []*time.Location{time.FixedZone("+03:00", 3*3600), time.FixedZone("+05:30", 5*3600+1800)}
	// Hourly plus a quarter across two days: both sides of the day/night
	// switch, of midnight in every zone, and of the power windows.
	for at := g.start.Add(24 * time.Hour); at.Before(g.start.Add(72 * time.Hour)); at = at.Add(time.Hour + 15*time.Minute) {
		for bi := range s.blocks {
			want := s.refStateAt(bi, s.TL.Round(at), at)
			for _, z := range zones {
				if got := s.stateAt(bi, at.In(z)); got != want {
					t.Fatalf("block %d at %s: stateAt in %s = %+v, in UTC %+v", bi, at, z, got, want)
				}
				if got := s.BlockStateAt(bi, at.In(z)); got != want {
					t.Fatalf("block %d at %s: BlockStateAt in %s = %+v, in UTC %+v", bi, at, z, got, want)
				}
			}
		}
	}
}

// TestResponderWarmPathZeroAlloc: once a block's minute is memoised and its
// rank table built, answering a probe allocates nothing.
func TestResponderWarmPathZeroAlloc(t *testing.T) {
	g := memoGrids[0]
	s, _ := memoWorld(t, g.start, g.interval)
	resp := s.Responder()
	at := s.TL.Time(9).Add(3 * time.Second)
	blk := s.Space.Blocks()[2]
	resp.Respond(blk.Addr(1), at)
	host := uint8(0)
	if n := testing.AllocsPerRun(1000, func() {
		host++
		benchReply = resp.Respond(blk.Addr(host), at)
	}); n != 0 {
		t.Fatalf("warm Respond allocates %.1f objects per probe, want 0", n)
	}
}

var benchReply simnet.Reply
