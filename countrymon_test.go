package countrymon

import (
	"strings"
	"testing"
	"time"

	"countrymon/internal/bgp"
	"countrymon/internal/fleet"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// outageResponder answers all hosts < density, except during [from, to)
// where everything is silent.
func outageResponder(density uint8, from, to time.Time) simnet.Responder {
	return simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		if !at.Before(from) && at.Before(to) {
			return simnet.Reply{Kind: simnet.NoReply}
		}
		if dst.HostByte() < density {
			return simnet.Reply{Kind: simnet.EchoReply, RTT: 30 * time.Millisecond}
		}
		return simnet.Reply{Kind: simnet.NoReply}
	})
}

func TestMonitorEndToEnd(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	const rounds = 400
	outFrom := start.Add(300 * 2 * time.Hour)
	outTo := outFrom.Add(20 * 2 * time.Hour)
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), outageResponder(40, outFrom, outTo), start)

	targets := []Prefix{netmodel.MustParsePrefix("91.198.4.0/23")}
	mon, err := New(Options{
		Transport: net,
		Targets:   targets,
		Start:     start, Rounds: rounds, Interval: 2 * time.Hour,
		Rate: 0, Seed: 7,
		Origins: map[BlockID]ASN{
			netmodel.MustParseBlock("91.198.4.0/24"): 25482,
			netmodel.MustParseBlock("91.198.5.0/24"): 25482,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mon.Timeline().NumRounds() != rounds {
		t.Fatalf("rounds = %d", mon.Timeline().NumRounds())
	}
	for mon.NextRound() {
		round := mon.Round()
		// Routedness: always routed in this scenario.
		for _, blk := range mon.Store().Blocks() {
			mon.SetRouted(blk, round, true, 25482)
		}
		stats, err := mon.ScanRound()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Sent != 512 {
			t.Fatalf("round %d: sent %d", round, stats.Sent)
		}
	}
	det := mon.DetectAS(25482)
	if len(det.Outages) != 1 {
		t.Fatalf("outages = %d, want 1 (%+v)", len(det.Outages), det.Outages)
	}
	o := det.Outages[0]
	if o.Start != 300 || o.End != 320 {
		t.Errorf("outage [%d,%d), want [300,320)", o.Start, o.End)
	}
	if !o.Signals.Has(SignalIPS) {
		t.Errorf("signals = %v", o.Signals)
	}
	if o.Duration(2*time.Hour) != 40*time.Hour {
		t.Errorf("duration = %v", o.Duration(2*time.Hour))
	}
}

func TestMonitorApplyBGPSnapshot(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), outageResponder(10, start, start), start)
	mon, err := New(Options{
		Transport: net,
		Targets:   []Prefix{netmodel.MustParsePrefix("10.0.0.0/23")},
		Start:     start, Rounds: 5, Interval: 2 * time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rib := bgp.NewRIB()
	rib.Announce(bgp.Route{Prefix: netmodel.MustParsePrefix("10.0.0.0/24"), Path: []ASN{64512, 100}, NextHop: 1})
	snap := rib.Snapshot(nil)
	mon.ApplyBGPSnapshot(snap, 0)
	st := mon.Store()
	if !st.Routed(st.BlockIndex(netmodel.MustParseBlock("10.0.0.0/24")), 0) {
		t.Error("announced block not routed")
	}
	if st.Routed(st.BlockIndex(netmodel.MustParseBlock("10.0.1.0/24")), 0) {
		t.Error("unannounced block routed")
	}
	// Origins learned: series exists for AS100. It spans the rounds handled
	// so far, so round 0's routed bit shows once round 0 is scanned.
	if n := len(mon.ASSeries(100).Missing); n != 0 {
		t.Fatalf("AS100 series spans %d rounds before the first scan", n)
	}
	if _, err := mon.ScanRound(); err != nil {
		t.Fatal(err)
	}
	es := mon.ASSeries(100)
	if es.BGP.At(0) != 1 {
		t.Errorf("AS100 BGP[0] = %f", es.BGP.At(0))
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil || !strings.Contains(err.Error(), "no Transport or Fleet") {
		t.Errorf("missing scan source: err = %v", err)
	}
	net := simnet.New(1, simnet.ResponderFunc(func(netmodel.Addr, time.Time) simnet.Reply {
		return simnet.Reply{}
	}), time.Unix(0, 0))
	if _, err := New(Options{Transport: net, Targets: []Prefix{netmodel.MustParsePrefix("10.0.0.0/24")}}); err == nil {
		t.Error("missing End/Rounds accepted")
	}
	if _, err := New(Options{Transport: net, Rounds: 1}); err == nil {
		t.Error("missing targets accepted")
	}
}

// TestFleetTargetsMustMatch: New refuses a fleet campaign joined over other
// blocks than its Targets. The fleet indexes a round's blocks in its own
// target order and the Monitor in its store's, so a mismatch would credit
// one block's belief to another, or index past the store on the first
// round with suspect blocks.
func TestFleetTargetsMustMatch(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	// Round 1 is dark, so every block turns suspect against round 0's
	// belief and the fleet re-probes it from its second vantage too (a
	// one-vantage fleet would not).
	dark := func(_ int, at time.Time) (Transport, Clock, error) {
		net := simnet.New(netmodel.MustParseAddr("198.51.100.1"),
			outageResponder(5, start.Add(time.Hour), start.Add(2*time.Hour)), at)
		return net, net, nil
	}
	vantages := []fleet.Spec{{Name: "v0", Transport: dark}, {Name: "v1", Transport: dark}}
	over := func(prefix string) Options {
		return Options{
			Clock:   scanner.NewVirtualClock(start),
			Targets: []Prefix{netmodel.MustParsePrefix(prefix)},
			Start:   start, Rounds: 2, Interval: time.Hour, Seed: 1,
		}
	}
	for _, tc := range []struct{ name, fleet, targets, err string }{
		{"fleet wider, other blocks", "10.0.0.0/22", "10.0.2.0/24", "block 0 is 10.0.0.0/24, Targets' is 10.0.2.0/24"},
		{"fleet wider, same first block", "10.0.0.0/22", "10.0.0.0/24", "has 4 target blocks, Targets has 1"},
		{"targets wider", "10.0.0.0/24", "10.0.0.0/23", "has 1 target blocks, Targets has 2"},
		{"same count, other blocks", "10.0.0.0/24", "10.0.1.0/24", "block 0 is 10.0.0.0/24, Targets' is 10.0.1.0/24"},
		{"same blocks", "10.0.0.0/23", "10.0.0.0/23", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := over(tc.targets)
			opts.Fleet = soloFleet(t, vantages, over(tc.fleet), 0)
			mon, err := New(opts)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("New: err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			runRounds(t, mon, -1)
			if rep := mon.FleetReport(); rep.Suspects != 2 {
				t.Errorf("dark round: %d suspect blocks, want 2", rep.Suspects)
			}
		})
	}
}
