package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"countrymon"
	"countrymon/internal/netmodel"
)

// TestPreRoundMatchesHandLoop runs one world through two Monitors over its
// wire — one driven by Run with the world's PreRound, one by the loop the
// campaign drivers each hand-rolled before the helper — and wants identical
// stores. The world has a scripted vantage outage, a BGP-down event and an
// AS that stops announcing mid-campaign. The outage round is measured, not
// announced: it must hold what the batch path (GenerateStore) writes for it.
func TestPreRoundMatchesHandLoop(t *testing.T) {
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	spec := assembleSpec(t, assembleEvents(start))
	spec.ASes[0].ActiveTo = start.Add(25 * 24 * time.Hour)
	spec.Missing = make([]bool, mustAssemble(spec).TL.NumRounds())
	spec.Missing[7] = true
	world := mustAssemble(spec)
	rounds := world.TL.NumRounds()

	newMonitor := func() *countrymon.Monitor {
		targets, origins := world.Targets()
		wire, clock := world.Wire(start, 0, 0) // the world scripts no degraded round
		mon, err := countrymon.New(countrymon.Options{
			Transport: wire,
			Clock:     clock,
			Targets:   targets,
			Start:     start,
			Interval:  world.TL.Interval(),
			Rounds:    rounds,
			Seed:      spec.Cfg.Seed,
			Origins:   origins,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}

	helped := newMonitor()
	if err := helped.Run(context.Background(), countrymon.RunConfig{PreRound: world.PreRound(helped.SetRouted)}); err != nil {
		t.Fatal(err)
	}

	mon := newMonitor()
	space := world.Space
	origins := make(map[netmodel.BlockID]netmodel.ASN, space.NumBlocks())
	for _, blk := range space.Blocks() {
		origins[blk] = space.OriginOf(blk)
	}
	blocks := space.Blocks()
	for mon.NextRound() {
		r := mon.Round()
		at := world.TL.Time(r)
		for bi, blk := range blocks {
			mon.SetRouted(blk, r, world.BlockStateAt(bi, at).Routed, origins[blk])
		}
		if _, err := mon.ScanRound(); err != nil {
			t.Fatal(err)
		}
	}

	got, want := helped.Store(), mon.Store()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("store driven by Scenario.PreRound differs from the hand loop's")
	}
	if !got.Missing(7) || got.Missing(8) || got.Coverage(7) != 0 {
		t.Fatalf("missing(7, 8) = %v, %v, coverage(7) %v, want true, false, 0", got.Missing(7), got.Missing(8), got.Coverage(7))
	}
	batch := world.GenerateStore(nil)
	for bi := range got.NumBlocks() {
		if got.Resp(bi, 7) != batch.Resp(bi, 7) || got.Routed(bi, 7) != batch.Routed(bi, 7) {
			t.Fatalf("block %d of missing round 7: resp %d routed %v, GenerateStore's %d %v",
				bi, got.Resp(bi, 7), got.Routed(bi, 7), batch.Resp(bi, 7), batch.Routed(bi, 7))
		}
	}
	// Block 0 is Alpha's (ActiveTo), block 2 Beta's (BGP-down on day 10).
	lastRound, outageRound := rounds-1, world.TL.Round(start.Add(10*24*time.Hour+2*time.Hour))
	if !got.Routed(0, 0) || got.Routed(0, lastRound) {
		t.Fatalf("Alpha routed(first, last) = %v, %v, want true, false", got.Routed(0, 0), got.Routed(0, lastRound))
	}
	if got.Routed(2, outageRound) || !got.Routed(2, outageRound-1) {
		t.Fatal("Beta's BGP-down event did not reach the store's routedness")
	}
	if !reflect.DeepEqual(helped.ASSeries(64501), mon.ASSeries(64501)) {
		t.Fatal("AS series differ: the helper fed different origins")
	}
}
