package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"countrymon/internal/netmodel"
	"countrymon/internal/power"
)

// refActive lists the events holding for block bi at instant at the way the
// oracle's loop selects them, appended to out.
func (s *refWorld) refActive(out []int16, bi int, at time.Time) []int16 {
	for _, ei := range s.blockEvents[bi] {
		ev := &s.events[ei]
		if at.Before(ev.From) || !at.Before(ev.To) {
			continue
		}
		out = append(out, ei)
	}
	return out
}

// agree holds every evaluation of block bi at instant at to the oracle: the
// unmemoised stateAt, BlockStateAt (through the round table when at is a
// round start, through a fresh instant otherwise, through the memo when the
// minute is held), and the span's event list — the same events in the same
// order, hence the same float64 operations.
func (s *refWorld) agree(bi int, at time.Time) error {
	round := s.TL.Round(at)
	want := s.refStateAt(bi, round, at)
	if got := s.stateAt(bi, at); got != want {
		return fmt.Errorf("block %d at %s: stateAt %+v, oracle %+v", bi, at.Format(time.RFC3339Nano), got, want)
	}
	if got := s.BlockStateAt(bi, at); got != want {
		return fmt.Errorf("block %d at %s: BlockStateAt %+v, oracle %+v", bi, at.Format(time.RFC3339Nano), got, want)
	}
	in := s.instantAt(round, at)
	var buf [16]int16
	if got, want := s.index.activeAt(bi, in.clock), s.refActive(buf[:0], bi, at); !slices.Equal(got, want) {
		return fmt.Errorf("block %d at %s: span holds events %v, oracle %v", bi, at.Format(time.RFC3339Nano), got, want)
	}
	return nil
}

// oracleWorlds are the worlds the differential tests run on: the benchmark's
// golden and held-out analysis worlds and memoWorld off the minute grid.
func oracleWorlds(t testing.TB) map[string]*refWorld {
	t.Helper()
	g := memoGrids[1]
	memo, _ := memoWorld(t, g.start, g.interval)
	return map[string]*refWorld{
		"seed 1":    newRefWorld(MustBuild(Config{Seed: 1, Scale: 0.02})),
		"seed 7919": newRefWorld(MustBuild(Config{Seed: 7919, Scale: 0.02})),
		"memoWorld": newRefWorld(memo),
	}
}

var oracleZones = []*time.Location{time.UTC, time.FixedZone("+05:30", 5*3600+1800), time.FixedZone("-08:00", -8*3600)}

// classMembers lists the blocks of every class.
// findEvent returns the first scripted event named name.
func findEvent(s *Scenario, name string) (Event, bool) {
	for _, e := range s.events {
		if e.Name == name {
			return e, true
		}
	}
	return Event{}, false
}

func classMembers(s *Scenario) [][]int {
	members := make([][]int, len(s.index.evOff)-1)
	for bi, ci := range s.index.blockClass {
		members[ci] = append(members[ci], bi)
	}
	return members
}

// TestStateMatchesOracle is the exactness check of the compiled evaluation:
// around every edge of every class, at every round start and at random
// instants inside and outside the campaign, in three zones and three orders,
// every path answers what the linear scan does.
func TestStateMatchesOracle(t *testing.T) {
	for name, s := range oracleWorlds(t) {
		t.Run(name, func(t *testing.T) {
			members := classMembers(s.Scenario)
			start := s.TL.Start()

			// Around every edge of every class, for every block of the class.
			type ask struct {
				at    time.Time
				class int
			}
			var asks []ask
			for ci := range members {
				for _, e := range s.index.edges[s.index.edgeOff[ci]:s.index.edgeOff[ci+1]] {
					at := start.Add(time.Duration(e))
					for _, d := range []time.Duration{0, 1, -1, time.Second, -time.Second, time.Minute, -time.Minute} {
						asks = append(asks, ask{at.Add(d).In(oracleZones[len(asks)%3]), ci})
					}
				}
			}
			backward := slices.Clone(asks)
			slices.Reverse(backward)
			mixed := slices.Clone(asks)
			rand.New(rand.NewSource(1)).Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
			for oi, order := range [][]ask{asks, backward, mixed} {
				for _, a := range order {
					m := members[a.class]
					if oi > 0 && len(m) > 2 { // the memo's order matters per block: two of a class do
						m = []int{m[0], m[len(m)-1]}
					}
					for _, bi := range m {
						if err := s.agree(bi, a.at); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			// Every round start, for a share of the blocks and of the classes
			// that walks all of them as the rounds go by.
			stride := 29
			if testing.Short() {
				stride = 211
			}
			for r := 0; r < s.TL.NumRounds(); r++ {
				at := s.TL.Time(r).In(oracleZones[r%3])
				for bi := r % stride; bi < len(s.blocks); bi += stride {
					if err := s.agree(bi, at); err != nil {
						t.Fatal(err)
					}
				}
				for ci := r % 4; ci < len(members); ci += 4 {
					if err := s.agree(members[ci][r%len(members[ci])], at); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Random instants from 60 days before round 0 to 60 days after the
			// last round, to the nanosecond.
			rng := rand.New(rand.NewSource(2))
			span := s.TL.End().Sub(start) + 120*24*time.Hour
			for i := 0; i < 10000; i++ {
				at := start.Add(-60*24*time.Hour + time.Duration(rng.Int63n(int64(span)))).In(oracleZones[i%3])
				if err := s.agree(rng.Intn(len(s.blocks)), at); err != nil {
					t.Fatal(err)
				}
				for ci := i % 8; ci < len(members); ci += 8 {
					if err := s.agree(members[ci][i%len(members[ci])], at); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestBlockEventsMatchOracle: visiting blocks from the events' side lists, for
// every block, exactly what asking every block about every event does.
func TestBlockEventsMatchOracle(t *testing.T) {
	for name, s := range oracleWorlds(t) {
		for bi := range s.blocks {
			if got, want := s.index.blockEvents(bi), s.blockEvents[bi]; !slices.Equal(got, want) {
				t.Fatalf("%s block %d: events %v, oracle %v", name, bi, got, want)
			}
		}
		t.Logf("%s: %d blocks in %d classes, %d edges, %d span entries",
			name, len(s.blocks), len(s.index.evOff)-1, len(s.index.edges), len(s.index.active))
	}
}

// handBuiltSpec is a four-block world scripted to hit what a compiled span
// could get wrong: overlapping drops whose product depends on the order of
// multiplication, events given out of order, a zero-length and an inverted
// event, two events sharing an edge, sub-second edges, one event naming a
// block by ASN, region and block id at once, an event naming nothing that
// exists, and edges the clock cannot hold (years 1 and 9999).
func handBuiltSpec() Spec {
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	off := func(d time.Duration) time.Time { return start.Add(d) }
	day := 24 * time.Hour
	ases := []ASTraits{
		testAS(64500, "Alpha", netmodel.Kyiv, "100.64.0.0/23"),
		testAS(64501, "Beta", netmodel.Lviv, "100.64.2.0/23"),
	}
	ases[1].ActiveFrom = time.Date(1, 1, 1, 0, 0, 1, 0, time.UTC) // beyond the clock, and not the zero Time
	ases[1].ActiveTo = time.Date(9999, 6, 1, 0, 0, 0, 0, time.UTC)
	first := ases[0].AS.Blocks()[0]
	spec := Spec{
		Cfg:  Config{Seed: 9, Interval: 4 * time.Hour, Start: start, End: SpecEnd(start, 30, 4*time.Hour)},
		ASes: ases,
		Events: []Event{
			{Name: "drop-c", Kind: EffectIPSDrop, Magnitude: 0.3, ASNs: []netmodel.ASN{64500},
				From: off(12 * day), To: off(16 * day)},
			{Name: "drop-a", Kind: EffectIPSDrop, Magnitude: 0.1, Regions: []netmodel.Region{netmodel.Kyiv},
				From: off(10 * day), To: off(15 * day)},
			{Name: "drop-b", Kind: EffectIPSDrop, Magnitude: 0.7, ASNs: []netmodel.ASN{64500},
				From: off(11 * day), To: off(15 * day)}, // shares its To with drop-a
			{Name: "zero-length", Kind: EffectBGPDown, ASNs: []netmodel.ASN{64500},
				From: off(13 * day), To: off(13 * day)},
			{Name: "inverted", Kind: EffectBGPDown, ASNs: []netmodel.ASN{64500},
				From: off(14 * day), To: off(9 * day)},
			{Name: "sub-second", Kind: EffectSilent, ASNs: []netmodel.ASN{64501},
				From: off(5*day + 1500*time.Millisecond), To: off(5*day + 1500*time.Millisecond + 1)},
			{Name: "thrice", Kind: EffectReroute, RTTDeltaMS: 30,
				ASNs: []netmodel.ASN{64500, 64500}, Regions: []netmodel.Region{netmodel.Kyiv}, Blocks: []netmodel.BlockID{first, first},
				From: off(20 * day), To: off(22 * day)},
			{Name: "nobody", Kind: EffectBGPDown, ASNs: []netmodel.ASN{65000}, Regions: []netmodel.Region{netmodel.Odessa},
				Blocks: []netmodel.BlockID{netmodel.MustParsePrefix("203.0.113.0/24").Base.Block()},
				From:   off(1 * day), To: off(29 * day)},
			{Name: "since-year-1", Kind: EffectReroute, RTTDeltaMS: 5, ASNs: []netmodel.ASN{64501},
				From: time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), To: off(3 * day)},
			{Name: "until-year-9999", Kind: EffectIPSDrop, Magnitude: 0.2, ASNs: []netmodel.ASN{64501},
				From: off(25 * day), To: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)},
			{Name: "all-of-year-9999", Kind: EffectSilent, ASNs: []netmodel.ASN{64501},
				From: time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC), To: time.Date(9999, 12, 1, 0, 0, 0, 0, time.UTC)},
		},
		Power: power.Scripted(start, 32, []power.Strike{{Day: 0, Days: 32, Hours: 6}}, 3),
	}
	for _, tr := range ases {
		for i, blk := range tr.AS.Blocks() {
			spec.Blocks = append(spec.Blocks, BlockTraits{
				Block: blk, ASN: tr.AS.ASN, HomeRegion: tr.AS.HQ,
				Density: 200, RespRate: 0.9, DeclineTo: 0.8, Diurnal: i == 0, BackupHours: 2,
			})
		}
	}
	return spec
}

func TestHandBuiltSpans(t *testing.T) {
	spec := handBuiltSpec()
	if a, b, c := 1-0.1, 1-0.7, 1-0.3; 137.0*a*b*c == 137.0*c*a*b {
		t.Fatal("the scripted drops multiply to the same float64 in either order: pick other magnitudes")
	}
	s := newRefWorld(mustAssemble(spec))
	if got, want := s.index.blockEvents(0), s.blockEvents[0]; !slices.Equal(got, want) || len(got) != 6 {
		t.Fatalf("block 0 lists events %v, oracle %v, want 6 (one of them named five times over)", got, want)
	}

	// Around every From and To the clock holds, and wherever Before orders an
	// instant against the two ends of the calendar.
	var times []time.Time
	for _, ev := range s.events {
		for _, e := range []time.Time{ev.From, ev.To} {
			if y := e.Year(); y > 1 && y < 9999 {
				times = append(times, memoSweep([]time.Time{e})...)
			}
		}
	}
	for r := 0; r < s.TL.NumRounds(); r++ {
		times = append(times, s.TL.Time(r))
	}
	for _, y := range []int{2, 1000, 1700, 1731, 1969, 2315, 2400, 5000, 9998} {
		times = append(times, time.Date(y, 7, 1, 12, 0, 0, 0, time.UTC))
	}
	for _, order := range [][]time.Time{times, shuffled(times, 3)} {
		for _, at := range order {
			for bi := range s.blocks {
				if err := s.agree(bi, at); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The three drops overlap on days 12–15 and apply in event order there.
	bi, at := 0, spec.Cfg.Start.Add(12*24*time.Hour+time.Hour)
	in := s.instantAt(s.TL.Round(at), at)
	var names []string
	for _, ei := range s.index.activeAt(bi, in.clock) {
		names = append(names, s.events[ei].Name)
	}
	if want := []string{"drop-a", "drop-b", "drop-c"}; !slices.Equal(names, want) {
		t.Fatalf("events holding on day 12: %v, want %v", names, want)
	}
}

// TestClockBeyondItsEnds pins what the integer clock does with instants it
// cannot hold, as Scenario.clock documents it.
func TestClockBeyondItsEnds(t *testing.T) {
	s := mustAssemble(handBuiltSpec())
	start := s.TL.Start()
	year1, year9999 := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	if got := s.clock(year1); got != math.MinInt64 {
		t.Errorf("clock(year 1) = %d, want the first tick", got)
	}
	if got := s.clock(year9999); got != math.MaxInt64 {
		t.Errorf("clock(year 9999) = %d, want the last tick", got)
	}
	// Inside, the clock is exact to the nanosecond and ordered like Before.
	for _, d := range []time.Duration{math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1} {
		if got := s.clock(start.Add(d)); got != int64(d) {
			t.Errorf("clock(start%+d ns) = %d", d, got)
		}
	}
	// An instant asked about never takes the last tick, so an open upper bound
	// (an AS with no ActiveTo, an edge beyond the far end) stays ahead of it.
	if in := s.instantAt(0, year9999); in.clock != math.MaxInt64-1 {
		t.Errorf("instantAt(year 9999).clock = %d, want one below the last tick", in.clock)
	}
	if in := s.instantAt(0, year1); in.clock != math.MinInt64 {
		t.Errorf("instantAt(year 1).clock = %d, want the first tick", in.clock)
	}
	// Where the order is not Before's: both the instant and the edge beyond
	// the same end. The instant counts as after the near edge and before the
	// far one, so an event lying wholly beyond an end holds nowhere.
	bi := s.Space.BlockIndex(s.asTraits[64501].AS.Blocks()[0])
	silent, _ := findEvent(s, "all-of-year-9999")
	mid := silent.From.Add(24 * time.Hour)
	if st := s.stateAt(bi, mid); st.Resp == 0 {
		t.Errorf("inside an event that lies beyond the clock: %+v, want it not to hold", st)
	}
	if st := s.stateAt(bi, time.Date(9999, 12, 15, 0, 0, 0, 0, time.UTC)); !st.Routed {
		t.Errorf("after an ActiveTo beyond the clock: %+v, want the bound still ahead", st)
	}
}

// TestRoundTableServesGridInstants: the per-round table is built by the first
// instant that is exactly a round start and by nothing else, and no knob
// selects it.
func TestRoundTableServesGridInstants(t *testing.T) {
	s := mustAssemble(handBuiltSpec())
	at := s.TL.Time(17)
	for _, off := range []time.Duration{1, -1, time.Minute, s.TL.Interval() / 2} {
		s.BlockStateAt(0, at.Add(off))
	}
	s.BlockStateAt(0, s.TL.Start().Add(-s.TL.Interval()))
	s.BlockStateAt(0, s.TL.End().Add(s.TL.Interval()))
	if s.rounds != nil {
		t.Fatal("an instant off the round grid built the round table")
	}
	s.BlockStateAt(0, at.In(oracleZones[1]))
	if len(s.rounds) != s.TL.NumRounds() {
		t.Fatalf("round table has %d entries after a round start was asked about, want %d", len(s.rounds), s.TL.NumRounds())
	}
	for r := range s.rounds {
		if got, want := s.rounds[r], s.instantAt(r, s.TL.Time(r)); got != want {
			t.Fatalf("round %d: table holds %+v, instantAt %+v", r, got, want)
		}
	}
	if size := unsafe.Sizeof(instant{}); size > 48 {
		t.Errorf("an instant takes %d bytes, want at most 48", size)
	}
}

// TestRoundTableConcurrent builds the lazily built table from many goroutines
// at once — some through BlockStateAt, some through GenerateStore (run it
// under -race).
func TestRoundTableConcurrent(t *testing.T) {
	g := memoGrids[0]
	world, _ := memoWorld(t, g.start, g.interval)
	s := newRefWorld(world)
	wantStore := world.GenerateStore(nil)
	fresh, _ := memoWorld(t, g.start, g.interval)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%4 == 0 {
				got := fresh.GenerateStore(nil)
				for bi := range fresh.blocks {
					for r := 0; r < fresh.TL.NumRounds(); r++ {
						if got.Resp(bi, r) != wantStore.Resp(bi, r) || got.Routed(bi, r) != wantStore.Routed(bi, r) {
							t.Errorf("block %d round %d: concurrent store differs", bi, r)
							return
						}
					}
				}
				return
			}
			for r := w; r < fresh.TL.NumRounds(); r += 3 {
				at := fresh.TL.Time(r)
				for bi := range fresh.blocks {
					if got, want := fresh.BlockStateAt(bi, at), s.refStateAt(bi, r, at); got != want {
						t.Errorf("block %d round %d: %+v, oracle %+v", bi, r, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAssembleEventLimit: event numbers are held as int16, and a script that
// would not fit is refused, not wrapped.
func TestAssembleEventLimit(t *testing.T) {
	spec := assembleSpec(t, nil)
	blocks := spec.ASes[0].AS.Blocks()
	start := spec.Cfg.Start
	for i := 0; i < maxEvents+1; i++ {
		from := start.Add(time.Duration(i) * time.Minute)
		spec.Events = append(spec.Events, Event{
			Name: "e", Kind: EffectSilent, Blocks: blocks[i%2 : i%2+1], From: from, To: from.Add(30 * time.Second),
		})
	}
	if _, err := Assemble(spec); err == nil {
		t.Fatalf("Assemble accepted %d events, want an error naming the limit of %d", len(spec.Events), maxEvents)
	}
	spec.Events = spec.Events[:maxEvents]
	s, err := Assemble(spec)
	if err != nil {
		t.Fatalf("Assemble refused %d events: %v", maxEvents, err)
	}
	// The last event has the highest number an int16 holds, and it holds.
	last := spec.Events[maxEvents-1]
	bi := s.Space.BlockIndex(last.Blocks[0])
	if got := s.index.blockEvents(bi); got[len(got)-1] != maxEvents-1 {
		t.Fatalf("last event listed as %d, want %d", got[len(got)-1], maxEvents-1)
	}
	if st := s.BlockStateAt(bi, last.From); st.Resp != 0 {
		t.Fatalf("inside the last event: %+v, want silence", st)
	}
	if st := s.BlockStateAt(bi, last.To); st.Resp == 0 {
		t.Fatalf("after the last event: %+v, want an answer", st)
	}
}

// scriptEvents decodes a fuzzed event script over the four-block world of
// spec: each 8 bytes are one event (From and length in units of 2^(unit%63) ns
// from origin, scope, kind, magnitude), at most 64 of them.
func scriptEvents(spec Spec, origin time.Time, script []byte, unit uint8) []Event {
	unit %= 63
	when := func(v int16) time.Time { return origin.Add(time.Duration(v) << unit) }
	blocks := spec.ASes[0].AS.Blocks()
	var events []Event
	for ; len(script) >= 8 && len(events) < 64; script = script[8:] {
		from := int16(binary.LittleEndian.Uint16(script))
		ev := Event{
			Name: fmt.Sprint("e", script[6]), Kind: EffectKind(script[5] % 5),
			Magnitude: float64(script[6]) / 256, RTTDeltaMS: int(script[7]),
			From: when(from), To: when(from + int16(binary.LittleEndian.Uint16(script[2:]))),
		}
		if script[4]&1 != 0 {
			ev.ASNs = []netmodel.ASN{64500 + netmodel.ASN(script[4]>>4&1)}
		}
		if script[4]&2 != 0 {
			ev.Regions = []netmodel.Region{netmodel.Kyiv}
		}
		if script[4]&4 != 0 {
			ev.Blocks = blocks[script[4]>>5&1:]
		}
		events = append(events, ev)
	}
	return events
}

// FuzzStateAtMatchesOracle scripts random event windows over the four-block
// world, from the campaign start (scriptEvents), and asks about random instants
// and every scripted edge.
func FuzzStateAtMatchesOracle(f *testing.F) {
	f.Add([]byte{10, 0, 20, 0, 1, 2, 50, 0, 15, 0, 20, 0, 2, 2, 30, 0}, int64(12), uint8(46))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0xff, 0xff, 3, 1, 0, 0}, int64(-3), uint8(40))
	f.Add([]byte{1, 0, 1, 0, 7, 3, 9, 9, 1, 0, 2, 0, 7, 2, 99, 1, 2, 0, 1, 0, 4, 4, 0, 0}, int64(1)<<40, uint8(0))
	f.Add([]byte{0xff, 0x7f, 0xff, 0x7f, 1, 2, 10, 0}, int64(math.MaxInt64), uint8(62))
	base := handBuiltSpec()
	f.Fuzz(func(t *testing.T, script []byte, probe int64, unit uint8) {
		spec := base
		spec.Events = scriptEvents(spec, spec.Cfg.Start, script, unit)
		unit %= 63
		s := newRefWorld(mustAssemble(spec))
		times := []time.Time{spec.Cfg.Start.Add(time.Duration(probe)), spec.Cfg.Start.Add(time.Duration(probe) << unit)}
		for _, ev := range s.events {
			times = append(times, ev.From.Add(-1), ev.From, ev.From.Add(1), ev.To.Add(-1), ev.To, ev.To.Add(1))
		}
		for _, at := range times {
			// Beyond the clock the order of two far instants is the documented
			// one, not Before's (TestClockBeyondItsEnds).
			if c := s.clock(at); c == math.MinInt64 || c == math.MaxInt64 {
				continue
			}
			for bi := range s.blocks {
				if err := s.agree(bi, at); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
