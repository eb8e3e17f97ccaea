package trinocular

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
)

func addrs(blk netmodel.BlockID, n int) []netmodel.Addr {
	out := make([]netmodel.Addr, n)
	for i := range out {
		out[i] = blk.Addr(uint8(i))
	}
	return out
}

func TestBeliefConvergesUp(t *testing.T) {
	blk := netmodel.MustParseBlock("10.0.0.0/24")
	tr := NewBlockTracker(blk, addrs(blk, 15), 0.6)
	probe := Probe(func(netmodel.Addr, int) bool { return true })
	state, probes := tr.Round(probe, 0)
	if state != StateUp {
		t.Fatalf("state = %v", state)
	}
	if probes != 1 {
		t.Errorf("a positive first probe should end the round, sent %d", probes)
	}
	if tr.belief < BeliefUp {
		t.Errorf("belief = %f", tr.belief)
	}
}

func TestBeliefConvergesDown(t *testing.T) {
	blk := netmodel.MustParseBlock("10.0.0.0/24")
	tr := NewBlockTracker(blk, addrs(blk, 15), 0.6)
	probe := Probe(func(netmodel.Addr, int) bool { return false })
	var state State
	for i := 0; i < 3; i++ {
		state, _ = tr.Round(probe, 0)
	}
	if state != StateDown {
		t.Fatalf("state = %v belief=%f", state, tr.belief)
	}
}

func TestAdaptiveProbingOnUncertainty(t *testing.T) {
	// Low availability: single negative probes are weak evidence, so the
	// tracker must probe adaptively within the round.
	blk := netmodel.MustParseBlock("10.0.0.0/24")
	tr := NewBlockTracker(blk, addrs(blk, 15), 0.15)
	probe := Probe(func(netmodel.Addr, int) bool { return false })
	_, probes := tr.Round(probe, 0)
	if probes < 2 {
		t.Errorf("expected adaptive probing, sent %d", probes)
	}
	if probes > maxAdaptiveProbes {
		t.Errorf("probe burst exceeded cap: %d", probes)
	}
}

func TestLowAvailabilityUnstable(t *testing.T) {
	// Fig 27 behaviour: with low availability, a partially-up block can
	// flap between inferred states even though ground truth is constant.
	blk := netmodel.MustParseBlock("10.0.0.0/24")
	tr := NewBlockTracker(blk, addrs(blk, 15), 0.2)
	// 1 of 15 representative addresses is alive, and like any single
	// unvalidated probe it misses ~12% of attempts (rate limiting). Rounds
	// are ten minutes apart.
	probe := Probe(func(a netmodel.Addr, round int) bool {
		if a.HostByte() >= 1 {
			return false
		}
		h := (uint64(a) * 2654435761) ^ (uint64(round*600) * 2246822519)
		h ^= h >> 13
		return h%8 != 0
	})
	states := map[State]int{}
	for i := 0; i < 400; i++ {
		s, _ := tr.Round(probe, i)
		states[s]++
	}
	if len(states) < 2 || states[StateUp] == 0 {
		t.Errorf("expected unstable inference over a sparse block, got %v", states)
	}
}

func TestEligible(t *testing.T) {
	if !Eligible(15, 0.1) || Eligible(14, 0.9) || Eligible(100, 0.05) {
		t.Error("eligibility rule wrong")
	}
}

var (
	runnerOnce sync.Once
	runnerSc   *sim.Scenario
	runnerSt   *dataset.Store
)

func runnerFixture(t *testing.T) (*sim.Scenario, *dataset.Store) {
	t.Helper()
	runnerOnce.Do(func() {
		runnerSc = sim.MustBuild(sim.Config{Seed: 42, Scale: 0.02,
			End: timeline.DefaultStart.AddDate(0, 8, 0)})
		runnerSt = runnerSc.GenerateStore(nil)
	})
	return runnerSc, runnerSt
}

func TestRunnerAgainstScenario(t *testing.T) {
	sc, st := runnerFixture(t)
	r := NewRunner(st, sc.Space, sc.Representatives, sc.RecordedProbe(st))
	if r.NumBlocks() == 0 {
		t.Fatal("no eligible blocks")
	}
	if r.NumBlocks() >= st.NumBlocks() {
		t.Error("Trinocular eligibility should exclude sparse blocks")
	}
	res := r.Run(sc.RecordedProbe(st))
	if res.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	// Probe budget: ≤ 15 per block per round (Table 1).
	rounds := uint64(0)
	for _, m := range res.Missing {
		if !m {
			rounds++
		}
	}
	if max := rounds * uint64(r.NumBlocks()) * maxAdaptiveProbes; res.ProbesSent > max {
		t.Errorf("probes %d exceed budget %d", res.ProbesSent, max)
	}
	// Sanity: in a random mid-campaign round most eligible blocks are up.
	mid := len(res.States[0]) / 2
	if st.Missing(mid) {
		mid++
	}
	up := 0
	for _, states := range res.States {
		if states[mid] == StateUp {
			up++
		}
	}
	if float64(up) < float64(r.NumBlocks())/4 {
		t.Errorf("only %d of %d blocks up mid-campaign", up, r.NumBlocks())
	}
}

func TestRunnerDetectsCableCut(t *testing.T) {
	sc, st := runnerFixture(t)
	r := NewRunner(st, sc.Space, sc.Representatives, sc.RecordedProbe(st))
	res := r.Run(sc.RecordedProbe(st))
	// Status (AS25482) blocks must be inferred down during the May 1 2022
	// cable cut if tracked.
	series, ok := res.PerAS[25482]
	if !ok {
		t.Skip("Status blocks not eligible at this scale")
	}
	tl := st.Timeline()
	cut := tl.Round(time.Date(2022, 5, 1, 12, 0, 0, 0, time.UTC))
	before := tl.Round(time.Date(2022, 4, 20, 12, 0, 0, 0, time.UTC))
	if series[cut] >= series[before] {
		t.Errorf("TRIN signal missed the cable cut: before=%f during=%f", series[before], series[cut])
	}
}

func TestRunnerTenMinuteInterval(t *testing.T) {
	// Exercise the baseline's native cadence on a one-day window.
	sc := sim.MustBuild(sim.Config{Seed: 9, Scale: 0.01,
		Start: timeline.DefaultStart, End: timeline.DefaultStart.AddDate(0, 2, 0),
		Interval: ProbeInterval})
	st := sc.GenerateStore(nil)
	probe := sc.ProbeFunc()
	r := NewRunner(st, sc.Space, sc.Representatives, probe)
	if r.NumBlocks() == 0 {
		t.Skip("no eligible blocks at this scale")
	}
	res := r.Run(probe)
	if res.ProbesSent == 0 {
		t.Fatal("no probes")
	}
}

// TestRunnerShortStore: a store of fewer rounds than calibrationSamples
// calibrates its trackers over the rounds it has, asking about each measured
// one and none past the end, and runs a state per round.
func TestRunnerShortStore(t *testing.T) {
	for _, rounds := range []int{1, 6, 11} {
		t.Run(fmt.Sprint(rounds, " rounds"), func(t *testing.T) {
			sc := sim.MustBuild(sim.Config{Seed: 1, Scale: 0.02,
				End: timeline.DefaultStart.Add(time.Duration(rounds-1)*6*time.Hour + time.Hour)})
			st := sc.GenerateStore(nil)
			if n := st.Timeline().NumRounds(); n != rounds {
				t.Fatalf("%d rounds, want %d", n, rounds)
			}
			asked := make([]atomic.Bool, rounds)
			rec := sc.RecordedProbe(st)
			probe := func(a netmodel.Addr, round int) bool {
				asked[round].Store(true)
				return rec(a, round)
			}
			r := NewRunner(st, sc.Space, sc.Representatives, probe)
			for round := range asked {
				if asked[round].Load() == st.Missing(round) {
					t.Errorf("round %d (missing %v): calibration asked %v", round, st.Missing(round), asked[round].Load())
				}
			}
			if r.NumBlocks() == 0 {
				t.Fatal("no eligible blocks")
			}
			res := r.Run(probe)
			if len(res.States) != r.NumBlocks() {
				t.Fatalf("%d state series for %d trackers", len(res.States), r.NumBlocks())
			}
			for tr, states := range res.States {
				if len(states) != rounds {
					t.Fatalf("tracker %d: %d states, want %d", tr, len(states), rounds)
				}
			}
		})
	}
}

// TestTrinocularRecordedMatchesEvaluated: a campaign whose probe reads the
// generated store is the campaign whose probe evaluates ground truth — the
// same trackers, states, per-AS counts and probes.
func TestTrinocularRecordedMatchesEvaluated(t *testing.T) {
	fixSc, fixSt := runnerFixture(t)
	bench := sim.MustBuild(sim.Config{Seed: 1, Scale: 0.02})
	worlds := map[string]struct {
		sc *sim.Scenario
		st *dataset.Store
	}{
		"fixture":     {fixSc, fixSt},
		"bench world": {bench, bench.GenerateStore(nil)},
	}
	for name, w := range worlds {
		t.Run(name, func(t *testing.T) {
			rec, eval := w.sc.RecordedProbe(w.st), w.sc.ProbeFunc()
			rr := NewRunner(w.st, w.sc.Space, w.sc.Representatives, rec)
			re := NewRunner(w.st, w.sc.Space, w.sc.Representatives, eval)
			if !reflect.DeepEqual(rr.Indeterminate, re.Indeterminate) || !reflect.DeepEqual(rr.storeIdx, re.storeIdx) {
				t.Fatalf("recorded runner tracks %d blocks, evaluated %d, or their availabilities differ", rr.NumBlocks(), re.NumBlocks())
			}
			got, want := rr.Run(rec), re.Run(eval)
			if got.ProbesSent != want.ProbesSent {
				t.Fatalf("probes sent: recorded %d, evaluated %d", got.ProbesSent, want.ProbesSent)
			}
			if !reflect.DeepEqual(got.States, want.States) {
				t.Fatal("states differ")
			}
			if !reflect.DeepEqual(got.PerAS, want.PerAS) {
				t.Fatal("per-AS counts differ")
			}
		})
	}
}
