package sim

import (
	"fmt"
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

// TestGenerateStoreMatchesOracle holds the block-major generator, which takes
// a block's hash halves once for all its rounds, to the oracle at every
// measured (block, round) of the oracle worlds: the clamped count, the routed
// bit and, every block being tracked, the RTT of a round with answers.
func TestGenerateStoreMatchesOracle(t *testing.T) {
	for name, s := range oracleWorlds(t) {
		t.Run(name, func(t *testing.T) {
			store := s.GenerateStore(s.Space.Blocks())
			n, stride := sweptBlocks(len(s.blocks))
			errs := make([]error, n)
			par.ForEach(n, func(i int) {
				bi := i * stride
				for r := range s.TL.NumRounds() {
					if store.Missing(r) != s.Missing[r] {
						errs[i] = fmt.Errorf("round %d: store missing %v, scenario %v", r, store.Missing(r), s.Missing[r])
						return
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
						errs[i] = fmt.Errorf("block %d round %d: store (%d, %v, %d ms), oracle %+v",
							bi, r, got, store.Routed(bi, r), store.RTT(bi, r), want)
						return
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
