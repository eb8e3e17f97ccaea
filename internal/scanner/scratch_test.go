package scanner_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// TestScanRoundAllocBudget pins what a round costs once the wire's slots, the
// engine's scratch, the target set's permutation and the caller's RoundData
// are warm: nothing. The scan keeps its cursor, validator and rate limiter
// by value, refills the RoundData it is given, and a nil Config.Metrics
// stands for one shared inert Metrics.
func TestScanRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ts := newTargets(t, "91.198.0.0/20")
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(40*time.Millisecond), time.Unix(0, 0))
	epoch := uint32(0)
	var rd scanner.RoundData
	round := func() {
		epoch++
		_, err := scanner.New(net, scanner.Config{Rate: -1, Seed: 42, Epoch: epoch, Clock: net, Cooldown: time.Second}).
			RunInto(context.Background(), ts, &rd)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Stats.Sent != 4096 || rd.Stats.Valid != 2048 {
			t.Fatalf("round %d: sent %d, valid %d; want 4096, 2048", epoch, rd.Stats.Sent, rd.Stats.Valid)
		}
	}
	round() // warm-up: builds the wire's slab, the pooled scratch, the permutation and rd

	if allocs := testing.AllocsPerRun(20, round); allocs > 0 {
		t.Errorf("a /20 round allocates %.0f objects, budget 0", allocs)
	}

	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if perRound := (after.TotalAlloc - before.TotalAlloc) / rounds; perRound >= 1<<10 {
		t.Errorf("back-to-back /20 rounds allocate %d bytes each, budget %d", perRound, 1<<10)
	}
}

// TestPooledScratchMatchesUnpooled: rounds that inherit a scratch — of their
// own batch size or another, scribbled over in between — produce exactly
// what a round with freshly built buffers does.
func TestPooledScratchMatchesUnpooled(t *testing.T) {
	run := func(batch int) scanResult {
		return runEngine(t, func(c *scanner.Config) { c.Batch = batch; c.ProbesPerAddr = 2 }, false)
	}
	want := map[int]scanResult{}
	for _, batch := range []int{64, 7} {
		scanner.ResetScratchPool()
		want[batch] = run(batch)
	}
	for i, batch := range []int{64, 7, 64, 64, 7, 7, 64, 7} {
		if got := run(batch); !reflect.DeepEqual(got, want[batch]) {
			t.Fatalf("run %d (batch %d) differs from the unpooled run:\n got %+v\nwant %+v", i, batch, got.Stats, want[batch].Stats)
		}
		if i%2 == 1 {
			scanner.PoisonScratch(batch)
		}
	}
}
