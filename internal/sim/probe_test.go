package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/timeline"
)

// sweptBlocks is how many blocks a sweep of every block's every round checks
// in n: all of them, or every sixth under the race detector, whose
// instrumentation makes the whole sweep minutes long (the uninstrumented test
// leg runs it whole).
func sweptBlocks(n int) (count, stride int) {
	if raceEnabled {
		return (n + 5) / 6, 6
	}
	return n, 1
}

// storeMatchesOracle holds block bi's row of store, which GenerateStore filled
// with every block tracked, to the oracle at every round: the missing mark,
// and at a measured round the clamped count, the routed bit and the RTT of a
// round with answers.
func storeMatchesOracle(s *refWorld, store *dataset.Store, bi int) error {
	for r := range s.TL.NumRounds() {
		if store.Missing(r) != s.Missing[r] {
			return fmt.Errorf("round %d: store missing %v, scenario %v", r, store.Missing(r), s.Missing[r])
		}
		if s.Missing[r] {
			continue
		}
		want := s.refStateAt(bi, r, s.TL.Time(r))
		wantRTT := uint16(0)
		if want.Resp > 0 {
			wantRTT = want.RTTMS
		}
		if got := store.Resp(bi, r); got != min(want.Resp, dataset.RespCap) ||
			store.Routed(bi, r) != want.Routed || store.RTT(bi, r) != wantRTT {
			return fmt.Errorf("block %d round %d: store (%d, %v, %d ms), oracle %+v",
				bi, r, got, store.Routed(bi, r), store.RTT(bi, r), want)
		}
	}
	return nil
}

// onGrid is spec run on grid g of memoGrids for its 30 days: every memoGrids
// start is handBuiltSpec's, so its events and power schedule keep their days.
func onGrid(spec Spec, g int) Spec {
	spec.Cfg.Start, spec.Cfg.Interval = memoGrids[g].start, memoGrids[g].interval
	spec.Cfg.End = SpecEnd(spec.Cfg.Start, 30, spec.Cfg.Interval)
	return spec
}

// minuteDecides counts the measured (block, round) cells of s at which the
// block's region is in a partial-day grid cut at a nonzero minute and the
// minute decides whether the cut has outlasted the block's backup: the cells
// an outage length that dropped its minute would get wrong. It reads the power
// schedule directly and skips frontline regions (whose days the schedule
// applies to by a hash) and moved blocks.
func minuteDecides(s *Scenario) int {
	n := 0
	for r := range s.TL.NumRounds() {
		at := s.TL.Time(r)
		if s.Missing[r] || at.UTC().Minute() == 0 {
			continue
		}
		for bi := range s.blocks {
			bt := &s.blocks[bi]
			if bt.Moved(s.TL.MonthOfRound(r)) || !bt.HomeRegion.Valid() || bt.HomeRegion.Frontline() {
				continue
			}
			out, since := s.Power.OutSince(bt.HomeRegion, at)
			backup := float64(bt.BackupHours)
			if out && since < 24 && math.Floor(since) <= backup && backup < since {
				n++
			}
		}
	}
	return n
}

// TestGenerateStoreMatchesOracle holds the block-major generator, which takes
// a block's hash halves once for all its rounds, the grid cut once per (round,
// region) and its events by a forward cursor, to the oracle at every measured
// (block, round) of the oracle worlds and of the four-block world on the grid
// whose round starts drift through the minutes.
func TestGenerateStoreMatchesOracle(t *testing.T) {
	worlds := oracleWorlds(t)
	drift := mustAssemble(onGrid(handBuiltSpec(), 2))
	// The oracle worlds' round starts all fall on minute 0.
	if n := minuteDecides(drift); n == 0 {
		t.Fatal("the drifting grid has no cell whose grid cut the minute decides")
	}
	worlds["drifting minutes"] = newRefWorld(drift)
	for name, s := range worlds {
		t.Run(name, func(t *testing.T) {
			store := s.GenerateStore(s.Space.Blocks())
			n, stride := sweptBlocks(len(s.blocks))
			errs := make([]error, n)
			par.ForEach(n, func(i int) {
				errs[i] = storeMatchesOracle(s, store, i*stride)
			})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRecordedProbeMatchesProbeFunc: on the generated store of every oracle
// world, reading the store answers every representative of every block at
// every round, missing rounds included, as evaluating ground truth does.
func TestRecordedProbeMatchesProbeFunc(t *testing.T) {
	for name, s := range oracleWorlds(t) {
		t.Run(name, func(t *testing.T) {
			st := s.GenerateStore(nil)
			rec, eval := s.RecordedProbe(st), s.ProbeFunc()
			missing := 0
			for r := range s.TL.NumRounds() {
				if st.Missing(r) {
					missing++
				}
			}
			if name != "memoWorld" && missing == 0 {
				t.Fatal("no missing round: the fallback goes unasked")
			}
			blocks := s.Space.Blocks()
			n, stride := sweptBlocks(len(blocks))
			errs := make([]error, n)
			par.ForEach(n, func(i int) {
				reps := s.Representatives(blocks[i*stride], 15)
				for r := range s.TL.NumRounds() {
					for _, a := range reps {
						if got, want := rec(a, r), eval(a, r); got != want {
							errs[i] = fmt.Errorf("%v round %d (missing %v): recorded %v, evaluated %v", a, r, st.Missing(r), got, want)
							return
						}
					}
				}
			})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRecordedProbeRejectsForeignStore: a store of other blocks or other
// rounds is refused; one of the same blocks on an equal grid is not.
func TestRecordedProbeRejectsForeignStore(t *testing.T) {
	s := mustAssemble(handBuiltSpec())
	blocks, tl := s.Space.Blocks(), s.TL
	grid := func(start time.Time, rounds int, interval time.Duration) *timeline.Timeline {
		return timeline.New(start, start.Add(time.Duration(rounds-1)*interval), interval)
	}
	foreign := map[string]*dataset.Store{
		"a block short":   dataset.NewStore(tl, blocks[1:]),
		"a block more":    dataset.NewStore(tl, append([]netmodel.BlockID{netmodel.MustParseBlock("192.0.2.0/24")}, blocks...)),
		"a round short":   dataset.NewStore(grid(tl.Start(), tl.NumRounds()-1, tl.Interval()), blocks),
		"a round later":   dataset.NewStore(grid(tl.Start().Add(tl.Interval()), tl.NumRounds(), tl.Interval()), blocks),
		"another cadence": dataset.NewStore(grid(tl.Start(), tl.NumRounds(), tl.Interval()/2), blocks),
	}
	for name, st := range foreign {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RecordedProbe accepted the store", name)
				}
			}()
			s.RecordedProbe(st)
		}()
	}
	s.RecordedProbe(dataset.NewStore(grid(tl.Start(), tl.NumRounds(), tl.Interval()), blocks))
}

// TestOneRoundWorldResponds: a campaign of one round has no decline to
// interpolate, so its blocks answer as at any first round, and the generator
// and the evaluation agree on every block.
func TestOneRoundWorldResponds(t *testing.T) {
	s := MustBuild(Config{Seed: 1, Scale: 0.02, End: timeline.DefaultStart.Add(time.Hour)})
	if n := s.TL.NumRounds(); n != 1 {
		t.Fatalf("%d rounds, want 1", n)
	}
	store := s.GenerateStore(nil)
	total := 0
	for bi := range s.blocks {
		want := s.BlockStateAt(bi, s.TL.Time(0))
		if got := store.Resp(bi, 0); got != want.Resp || store.Routed(bi, 0) != want.Routed {
			t.Fatalf("block %d: store (%d, %v), BlockStateAt %+v", bi, got, store.Routed(bi, 0), want)
		}
		total += want.Resp
	}
	if total == 0 {
		t.Fatal("no block answers in the one round")
	}
}

// FuzzGenerateStoreMatchesOracle scripts events as FuzzStateAtMatchesOracle
// does, but from an origin at a round start (round, modulo the world's
// rounds) of the four-block world on one of memoGrids, and holds every cell of
// GenerateStore, every block tracked, to the oracle. The generator's grid-cut
// table and forward span cursor are reached only through GenerateStore, so an
// edge on a round start or a nanosecond before one is where they could differ
// from the evaluation at one instant.
func FuzzGenerateStoreMatchesOracle(f *testing.F) {
	// From exactly on round 7's start, and To exactly on it.
	f.Add([]byte{0, 0, 20, 0, 1, 1, 0, 0, 0xfb, 0xff, 5, 0, 0x11, 2, 128, 0}, uint8(0), uint16(7), uint8(40))
	// From a nanosecond before round 30's start, and To a nanosecond before it.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 2, 1, 0, 0, 0x9c, 0xff, 99, 0, 0x15, 3, 9, 40}, uint8(1), uint16(30), uint8(0))
	// On the drifting grid: a one-nanosecond event from round 100's start, and
	// one from a nanosecond before it to a nanosecond after.
	f.Add([]byte{0, 0, 1, 0, 0x05, 2, 200, 0, 0xff, 0xff, 2, 0, 0x25, 4, 0, 0}, uint8(2), uint16(100), uint8(0))
	// On the drifting grid, windows hours long from round 0 on.
	f.Add([]byte{3, 0, 9, 0, 7, 0, 0, 0, 1, 0, 30, 0, 2, 2, 77, 0, 0, 0, 50, 0, 1, 3, 0, 25}, uint8(2), uint16(0), uint8(44))
	bases := make([]Spec, len(memoGrids))
	grids := make([]*timeline.Timeline, len(memoGrids))
	for g := range memoGrids {
		bases[g] = onGrid(handBuiltSpec(), g)
		grids[g] = mustAssemble(bases[g]).TL
	}
	f.Fuzz(func(t *testing.T, script []byte, grid uint8, round uint16, unit uint8) {
		g := int(grid) % len(memoGrids)
		spec, tl := bases[g], grids[g]
		spec.Events = scriptEvents(spec, tl.Time(int(round)%tl.NumRounds()), script, unit)
		s := newRefWorld(mustAssemble(spec))
		store := s.GenerateStore(s.Space.Blocks())
		for bi := range s.blocks {
			if err := storeMatchesOracle(s, store, bi); err != nil {
				t.Fatal(err)
			}
		}
	})
}
