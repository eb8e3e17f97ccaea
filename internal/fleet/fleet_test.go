package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/par"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

const density = 40 // ground truth: hosts 0..39 of every block answer

func testTargets(t *testing.T) *scanner.TargetSet {
	t.Helper()
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{
		{Base: netmodel.MustParseAddr("198.51.100.0"), Bits: 23},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func aliveResponder() simnet.Responder {
	return simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		if dst.HostByte() < density {
			return simnet.Reply{Kind: simnet.EchoReply, RTT: 25 * time.Millisecond}
		}
		return simnet.Reply{Kind: simnet.NoReply}
	})
}

// deadResponder is the silent-poison vantage: probes go out, nothing comes
// back, the scan "completes" with full coverage and zero replies.
func deadResponder() simnet.Responder {
	return simnet.ResponderFunc(func(netmodel.Addr, time.Time) simnet.Reply {
		return simnet.Reply{Kind: simnet.NoReply}
	})
}

// outageAfter answers like aliveResponder until from, then goes dark: the
// genuine target outage every vantage agrees on.
func outageAfter(from time.Time) simnet.Responder {
	alive := aliveResponder()
	return simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		if !at.Before(from) {
			return simnet.Reply{Kind: simnet.NoReply}
		}
		return alive.Respond(dst, at)
	})
}

func simSpec(name string, resp simnet.Responder) Spec {
	local := netmodel.MustParseAddr("203.0.113.1")
	return Spec{Name: name, Transport: func(round int, at time.Time) (scanner.Transport, scanner.Clock, error) {
		n := simnet.New(local, resp, at)
		return n, n, nil
	}}
}

func errSpec(name string) Spec {
	return Spec{Name: name, Transport: func(int, time.Time) (scanner.Transport, scanner.Clock, error) {
		return nil, nil, errors.New("vantage unreachable")
	}}
}

func baseConfig() Config {
	return Config{Scan: scanner.Config{Seed: 7, Rate: 200000, Cooldown: time.Second}}
}

// newSolo builds a supervisor and joins its one campaign over targets: the
// single-country fleet cmd/countrymon -vantages builds.
func newSolo(specs []Spec, cfg Config, targets *scanner.TargetSet) (*Supervisor, *Campaign, error) {
	s, err := NewShared(specs, cfg)
	if err != nil {
		return nil, nil, err
	}
	c, err := s.Join(CampaignConfig{Name: "default", Targets: targets})
	return s, c, err
}

// truthPrev supplies the established belief: every block answered with
// `density` hosts last round.
func truthPrev(int) (int, bool) { return density, true }

var campaignStart = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func roundAt(r int) time.Time { return campaignStart.Add(time.Duration(r) * 2 * time.Hour) }

func assertTruth(t *testing.T, rd *scanner.RoundData, round int) {
	t.Helper()
	if rd == nil {
		t.Fatalf("round %d: nil RoundData", round)
	}
	if rd.Coverage() < 1 {
		t.Fatalf("round %d: coverage %.3f, want 1", round, rd.Coverage())
	}
	for bi := range rd.Blocks {
		if got := int(rd.Blocks[bi].RespCount); got != density {
			t.Fatalf("round %d block %d: resp %d, want %d", round, bi, got, density)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(breakerConfig{threshold: 3, openRounds: 2, maxOpenRounds: 8})
	if st := b.beginRound(0); st != Closed {
		t.Fatalf("initial state %v, want closed", st)
	}
	// Two failures stay closed, the third trips.
	if b.failure(0) || b.failure(0) {
		t.Fatal("breaker tripped before threshold")
	}
	if !b.failure(0) || b.state != Open {
		t.Fatalf("breaker did not trip at threshold (state %v)", b.state)
	}
	// Quarantined for OpenRounds: rounds 1, 2 stay open, round 3 trials.
	if st := b.beginRound(1); st != Open {
		t.Fatalf("round 1 state %v, want open", st)
	}
	if st := b.beginRound(2); st != Open {
		t.Fatalf("round 2 state %v, want open", st)
	}
	if st := b.beginRound(3); st != HalfOpen {
		t.Fatalf("round 3 state %v, want half_open", st)
	}
	// Failed trial doubles the quarantine: open through round 7, trial at 8.
	if !b.failure(3) || b.state != Open || b.quarantine != 4 {
		t.Fatalf("failed trial: state %v quarantine %d, want open 4", b.state, b.quarantine)
	}
	for r := 4; r <= 7; r++ {
		if st := b.beginRound(r); st != Open {
			t.Fatalf("round %d state %v, want open", r, st)
		}
	}
	if st := b.beginRound(8); st != HalfOpen {
		t.Fatalf("round 8 state %v, want half_open", st)
	}
	// Another failed trial hits the MaxOpenRounds cap.
	b.failure(8)
	if b.quarantine != 8 {
		t.Fatalf("quarantine %d, want capped 8", b.quarantine)
	}
	b.beginRound(17)
	if b.state != HalfOpen {
		t.Fatalf("state %v, want half_open at round 17", b.state)
	}
	// A successful trial closes and resets the backoff.
	if !b.success() || b.state != Closed || b.quarantine != 2 {
		t.Fatalf("trial success: state %v quarantine %d, want closed 2", b.state, b.quarantine)
	}
}

func TestHealthyRound(t *testing.T) {
	specs := []Spec{
		simSpec("v0", aliveResponder()),
		simSpec("v1", aliveResponder()),
		simSpec("v2", aliveResponder()),
	}
	s, c, err := newSolo(specs, baseConfig(), testTargets(t))
	if err != nil {
		t.Fatal(err)
	}
	rd, rep, err := c.ScanRound(context.Background(), 0, campaignStart, truthPrev)
	if err != nil {
		t.Fatal(err)
	}
	assertTruth(t, rd, 0)
	if rep.Healthy != 3 || rep.Eligible != 3 || rep.Steals != 0 || rep.Degraded {
		t.Fatalf("report %+v, want 3 healthy, no steals, not degraded", rep)
	}
	if rep.Suspects != 0 {
		t.Fatalf("healthy round produced %d suspects", rep.Suspects)
	}
	if s.Report().Degraded() {
		t.Fatal("healthy campaign reports degraded")
	}
}

func TestFailoverAndQuarantine(t *testing.T) {
	specs := []Spec{
		errSpec("v0"), // never comes up
		simSpec("v1", aliveResponder()),
		simSpec("v2", aliveResponder()),
	}
	cfg := baseConfig()
	cfg.Registry = obs.NewRegistry()
	s, c, err := newSolo(specs, cfg, testTargets(t))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		rd, rep, err := c.ScanRound(context.Background(), r, roundAt(r), truthPrev)
		if err != nil {
			t.Fatal(err)
		}
		// Every round still delivers the full truth: v0's shards are stolen
		// while it is closed and never assigned once it is quarantined.
		assertTruth(t, rd, r)
		if rep.SelfOutage || rep.Uncovered != 0 {
			t.Fatalf("round %d: %+v — coverage hole despite healthy thieves", r, rep)
		}
	}
	// Threshold 3: v0 fails its shard in rounds 0, 1, 2 and trips.
	if st := s.vantages[0].br.state; st != Open {
		t.Fatalf("v0 state %v, want open", st)
	}
	rep := s.Report()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "v0" {
		t.Fatalf("quarantined %v, want [v0]", rep.Quarantined)
	}
	if rep.Steals < 3 {
		t.Fatalf("steals %d, want >= 3 (one per failed round)", rep.Steals)
	}
	if !rep.Degraded() {
		t.Fatal("campaign with a quarantined vantage must report degraded")
	}
	var b strings.Builder
	cfg.Registry.WritePrometheus(&b)
	for _, want := range []string{
		`fleet_breaker_transitions_total{to="open"} 1`,
		`fleet_vantage_health{vantage="v0"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q in\n%s", want, b.String())
		}
	}
}

func TestStalledVantageCannotFakeAnOutage(t *testing.T) {
	// v0's receive path is wedged: its scans complete with full coverage and
	// zero replies. Without fusion this silently halves every block's count;
	// with it, corroboration restores the truth and the poisoned heartbeat
	// eventually quarantines v0.
	specs := []Spec{
		simSpec("v0", deadResponder()),
		simSpec("v1", aliveResponder()),
		simSpec("v2", aliveResponder()),
	}
	s, c, err := newSolo(specs, baseConfig(), testTargets(t))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		rd, rep, err := c.ScanRound(context.Background(), r, roundAt(r), truthPrev)
		if err != nil {
			t.Fatal(err)
		}
		// Zero false outages, ever: fusion restores every suspect block.
		assertTruth(t, rd, r)
		if rep.FusedDown != 0 {
			t.Fatalf("round %d: %d blocks fused down — false outage", r, rep.FusedDown)
		}
	}
	if st := s.vantages[0].br.state; st != Open {
		t.Fatalf("v0 state %v, want open (poisoned heartbeats must trip it)", st)
	}
	rep := s.Report()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "v0" {
		t.Fatalf("quarantined %v, want [v0]", rep.Quarantined)
	}
	if rep.FusedAlive == 0 {
		t.Fatal("no blocks were fused alive — the poison was never corrected")
	}
	if rep.FusedDown != 0 {
		t.Fatalf("campaign fused %d blocks down, want 0", rep.FusedDown)
	}
}

func TestGenuineOutageStillDetected(t *testing.T) {
	// All vantages are healthy and the target really goes dark in round 2:
	// the dark quorum must confirm the transition in that same round.
	outStart := roundAt(2)
	specs := []Spec{
		simSpec("v0", outageAfter(outStart)),
		simSpec("v1", outageAfter(outStart)),
		simSpec("v2", outageAfter(outStart)),
	}
	s, c, err := newSolo(specs, baseConfig(), testTargets(t))
	if err != nil {
		t.Fatal(err)
	}
	prev := density
	for r := 0; r < 4; r++ {
		rd, rep, err := c.ScanRound(context.Background(), r, roundAt(r),
			func(int) (int, bool) { return prev, true })
		if err != nil {
			t.Fatal(err)
		}
		if r < 2 {
			assertTruth(t, rd, r)
		} else {
			for bi := range rd.Blocks {
				if rd.Blocks[bi].RespCount != 0 {
					t.Fatalf("round %d block %d: resp %d, want 0 (real outage)",
						r, bi, rd.Blocks[bi].RespCount)
				}
			}
			if r == 2 && rep.FusedDown != rd.Targets.NumBlocks() {
				t.Fatalf("round 2 fused %d blocks down, want %d", rep.FusedDown, rd.Targets.NumBlocks())
			}
		}
		prev = int(rd.Blocks[0].RespCount)
	}
	// A corroborated target outage is not a fleet problem: nobody tripped.
	for i := range specs {
		if st := s.vantages[i].br.state; st != Closed {
			t.Fatalf("vantage %d state %v, want closed", i, st)
		}
	}
	if s.Report().Degraded() {
		t.Fatal("corroborated target outage must not mark the campaign degraded")
	}
}

func TestNilPrevSuspectsNothing(t *testing.T) {
	// Without a belief there is nothing to fall from: the same dark round
	// that fuses every block down above is taken as read, round after round.
	_, c, err := newSolo([]Spec{
		simSpec("v0", outageAfter(roundAt(1))),
		simSpec("v1", outageAfter(roundAt(1))),
	}, baseConfig(), testTargets(t))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		_, rep, err := c.ScanRound(context.Background(), r, roundAt(r), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Suspects != 0 || rep.FusedDown != 0 {
			t.Fatalf("round %d: %+v, want no suspects without a belief", r, rep)
		}
	}
}

// TestBlackoutRoundFitsTheEventRing: a blacked-out vantage fails its shard and
// then its share of the re-probe, some ten thousand send attempts in one
// round. Reported per batch they leave the round's own story — which shard
// failed and why, who stole it, what fusion decided — in a default-capacity
// ring for a since= poller, with no gap behind the event it last read.
func TestBlackoutRoundFitsTheEventRing(t *testing.T) {
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{ // 48 /24s: 4 096 addresses a shard
		{Base: netmodel.MustParseAddr("198.18.0.0"), Bits: 19},
		{Base: netmodel.MustParseAddr("198.18.32.0"), Bits: 20},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every block reads one host short of the belief, so all 48 are suspects
	// and re-probed from every closed vantage — the dead one included.
	belief := func(int) (int, bool) { return density + 1, true }
	blackout := faults.Profile{Windows: []faults.Window{{
		From: roundAt(0).Add(-time.Hour), To: roundAt(1), Kind: faults.Blackout,
	}}}
	v0 := simSpec("v0", aliveResponder())
	clean := v0.Transport
	v0.Transport = func(round int, at time.Time) (scanner.Transport, scanner.Clock, error) {
		tr, clk, err := clean(round, at)
		return faults.NewTransport(tr, clk, blackout), clk, err
	}
	cfg := baseConfig()
	cfg.Bus = obs.NewBus(0)
	cfg.Scan.Events = cfg.Bus
	_, c, err := newSolo([]Spec{v0, simSpec("v1", aliveResponder()), simSpec("v2", aliveResponder())}, cfg, ts)
	if err != nil {
		t.Fatal(err)
	}

	seq := cfg.Bus.Publish("poller_read_up_to_here", nil).Seq
	rd, rep, err := c.ScanRound(context.Background(), 0, roundAt(0), belief)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Coverage() < 1 || rep.Steals != 1 || rep.Suspects != 48 || rep.FusedAlive != 48 {
		t.Fatalf("coverage %.3f, %+v; want v0's shard stolen and all 48 blocks corroborated alive", rd.Coverage(), rep)
	}
	evs := cfg.Bus.Since(seq)
	if len(evs) == 0 || evs[0].Seq != seq+1 {
		t.Errorf("the round wrapped the ring: %d events retained, none of them the round's first", len(evs))
	}
	kinds := make(map[string]int)
	for _, ev := range evs {
		kinds[ev.Kind]++
		if p, ok := ev.Fields.(ShardFailedEvent); ev.Kind == "shard_failed" && (!ok || !p.Scanned || p.Coverage != 0 ||
			p.SendErrors != 410 || p.RecvDead || p.Error == nil || p.Error.Error() != (&faults.Err{Op: "send"}).Error()) {
			t.Errorf("shard_failed does not say why: %+v", ev.Fields)
		}
	}
	for _, kind := range []string{"shard_failed", "shard_steal", "fleet_fusion", "retry"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s event among the round's %v", kind, kinds)
		}
	}
}

func TestSelfOutage(t *testing.T) {
	specs := []Spec{errSpec("v0"), errSpec("v1"), errSpec("v2")}
	cfg := baseConfig()
	s, c, err := newSolo(specs, cfg, testTargets(t))
	if err != nil {
		t.Fatal(err)
	}
	rd, rep, err := c.ScanRound(context.Background(), 0, campaignStart, truthPrev)
	if err != nil {
		t.Fatal(err)
	}
	if rd != nil || !rep.SelfOutage || !rep.Degraded {
		t.Fatalf("round 0: rd=%v rep=%+v, want nil data and self-outage", rd, rep)
	}
	// Every shard failed over every vantage, so the fleet is what is dark:
	// no breaker is charged, as a lone vantage's is not, and round 1 scans
	// from all three again instead of finding none closed.
	_, rep, err = c.ScanRound(context.Background(), 1, roundAt(1), truthPrev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SelfOutage || rep.Eligible != 3 || rep.Healthy != 3 {
		t.Fatalf("round 1: %+v, want a self-outage with 3 closed vantages", rep)
	}
	if got := s.Report(); got.SelfOutages != 2 || len(got.Quarantined) != 0 {
		t.Fatalf("report %+v, want 2 self-outages and nobody quarantined", got)
	}
}

// fleetTranscript runs a fixed degraded-fleet campaign and renders every
// round's full output as a string, for byte-identity comparisons.
func fleetTranscript(t *testing.T) string {
	t.Helper()
	specs := []Spec{
		simSpec("v0", deadResponder()),
		errSpec("v1"),
		simSpec("v2", aliveResponder()),
		simSpec("v3", aliveResponder()),
	}
	s, c, err := newSolo(specs, baseConfig(), testTargets(t))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for r := 0; r < 6; r++ {
		rd, rep, err := c.ScanRound(context.Background(), r, roundAt(r), truthPrev)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "round %d rep %+v\n", r, *rep)
		if rd == nil {
			fmt.Fprintf(&b, "  self-outage\n")
			continue
		}
		fmt.Fprintf(&b, "  probed %d/%d partial %v recvdead %v\n",
			rd.Probed, rd.ShardTargets, rd.Partial, rd.RecvDead)
		for bi := range rd.Blocks {
			fmt.Fprintf(&b, "  block %d resp %d\n", bi, rd.Blocks[bi].RespCount)
		}
	}
	fmt.Fprintf(&b, "campaign %+v\n", s.Report())
	return b.String()
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Setenv("COUNTRYMON_WORKERS", "1")
	serial := fleetTranscript(t)
	t.Setenv("COUNTRYMON_WORKERS", "8")
	wide := fleetTranscript(t)
	if serial != wide {
		t.Fatalf("fleet output depends on COUNTRYMON_WORKERS:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", serial, wide)
	}
}

func TestSingleVantageMatchesDirectScan(t *testing.T) {
	// A one-vantage fleet with nothing to corroborate must reproduce a
	// direct scanner run bit for bit.
	cfg := baseConfig()
	targets := testTargets(t)
	_, c, err := newSolo([]Spec{simSpec("v0", aliveResponder())}, cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	rd, _, err := c.ScanRound(context.Background(), 0, campaignStart, truthPrev)
	if err != nil {
		t.Fatal(err)
	}

	net := simnet.New(netmodel.MustParseAddr("203.0.113.1"), aliveResponder(), campaignStart)
	direct := cfg.Scan
	direct.Epoch = 1
	direct.Clock = net
	want, err := scanner.New(net, direct).RunContext(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Blocks) != len(want.Blocks) {
		t.Fatalf("block count %d != %d", len(rd.Blocks), len(want.Blocks))
	}
	for bi := range want.Blocks {
		if rd.Blocks[bi].RespCount != want.Blocks[bi].RespCount {
			t.Fatalf("block %d: fleet %d direct %d", bi,
				rd.Blocks[bi].RespCount, want.Blocks[bi].RespCount)
		}
	}
	if rd.Probed != want.Probed || rd.ShardTargets != want.ShardTargets {
		t.Fatalf("probed/targets (%d/%d) != (%d/%d)",
			rd.Probed, rd.ShardTargets, want.Probed, want.ShardTargets)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewShared(nil, Config{}); err == nil {
		t.Error("no vantages accepted")
	}
	if _, err := NewShared([]Spec{{Name: "x"}}, Config{}); err == nil {
		t.Error("missing transport factory accepted")
	}
	dup := []Spec{simSpec("a", aliveResponder()), simSpec("a", aliveResponder())}
	if _, err := NewShared(dup, Config{}); err == nil {
		t.Error("duplicate vantage names accepted")
	}
	if _, _, err := newSolo([]Spec{simSpec("a", aliveResponder())}, Config{}, nil); err == nil {
		t.Error("missing targets accepted")
	}
}

// TestReusedBuffersMatchFresh: a campaign that scans, rescans, merges and
// re-probes into the buffers, bookkeeping and suspect set of its earlier
// rounds reports every round exactly as one that starts each round from
// nothing. The world has a blackout on v0 (its shards are stolen until its
// breaker opens, and its half-open trial's samples are the only ones it
// contributes to fusion), a stall on v1 (its shards read dark, so every block
// is suspect and re-probed) and a target whose dark blocks change from round
// to round, so the suspect set the vantages re-probe grows, shrinks, and
// keeps its length with other blocks. Round 0 believes every block livelier
// than it is, so every vantage's samples of it are non-zero: a row that is
// reused uncleared would turn v0's trial verdict on a dark block to alive.
func TestReusedBuffersMatchFresh(t *testing.T) {
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{{Base: netmodel.MustParseAddr("198.51.96.0"), Bits: 21}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// dark[r] has bit b set when block b of the eight is dark in round r.
	dark := []uint8{0, 0b1, 0b111, 0b100000, 0, 0, 0b110, 0b1010000, 0b111111, 0b1000, 0b10000000, 0}
	alive := aliveResponder()
	truth := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		r := int(at.Sub(campaignStart) / (2 * time.Hour))
		if dark[r]>>(dst>>8&7)&1 == 1 {
			return simnet.Reply{Kind: simnet.NoReply}
		}
		return alive.Respond(dst, at)
	})
	window := func(kind faults.Kind, from, to int) faults.Profile {
		return faults.Profile{Windows: []faults.Window{{From: roundAt(from).Add(-time.Minute), To: roundAt(to), Kind: kind}}}
	}
	profiles := []faults.Profile{window(faults.Blackout, 1, 4), window(faults.Stall, 4, 6), {}}
	campaign := func() *Campaign {
		var specs []Spec
		for i, prof := range profiles {
			clean := simSpec(fmt.Sprintf("v%d", i), truth)
			specs = append(specs, Spec{Name: clean.Name, Transport: func(round int, at time.Time) (scanner.Transport, scanner.Clock, error) {
				tr, clk, err := clean.Transport(round, at)
				return faults.NewTransport(tr, clk, prof), clk, err
			}})
		}
		_, c, err := newSolo(specs, baseConfig(), ts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	reused, fresh := campaign(), campaign()
	steals := 0
	var last []netmodel.BlockID // the suspect set last re-probed
	seen := map[string]bool{}
	for r := range dark {
		prev := truthPrev
		if r == 0 {
			prev = func(int) (int, bool) { return density + 1, true }
		}
		dropBuffers(fresh)
		rdA, repA, errA := reused.ScanRound(context.Background(), r, roundAt(r), prev)
		rdB, repB, errB := fresh.ScanRound(context.Background(), r, roundAt(r), prev)
		if errA != nil || errB != nil {
			t.Fatalf("round %d: %v, %v", r, errA, errB)
		}
		if !reflect.DeepEqual(repA, repB) {
			t.Fatalf("round %d: report %+v, from fresh buffers %+v", r, *repA, *repB)
		}
		if (rdA == nil) != (rdB == nil) || rdA != nil && !reflect.DeepEqual(*rdA, *rdB) {
			t.Fatalf("round %d: merged round differs from the one from fresh buffers", r)
		}
		steals += repA.Steals
		if repA.Suspects == 0 {
			continue
		}
		cur := reused.scratch.suspectTS.Blocks()
		switch {
		case last == nil:
		case len(cur) > len(last):
			seen["grew"] = true
		case len(cur) < len(last):
			seen["shrank"] = true
		case !reflect.DeepEqual(cur, last):
			seen["kept its length with other blocks"] = true
		}
		last = append(last[:0], cur...)
	}
	if steals == 0 || len(seen) < 3 {
		t.Fatalf("the campaign stole %d shards and its suspect set only %v: too tame to show a leak", steals, seen)
	}
}

// TestCampaignRoundAllocBudget pins what a warm coordinated round costs when
// every block is suspect, so it is corroborated by a re-probe from all three
// vantages: the campaign keeps its scan buffers, bookkeeping and suspect set
// across rounds, so what is left is per scan or per round by design.
func TestCampaignRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	if allocs, _ := corroboratedRoundAllocs(t, nil); allocs > corroboratedRoundBudget {
		t.Errorf("a warm corroborated round allocates %.1f objects, budget %d", allocs, corroboratedRoundBudget)
	}
}

// TestCampaignRoundAllocBudgetWithBus is TestCampaignRoundAllocBudget's
// round with a bus attached: each event the round publishes costs one
// object, its boxed payload, and nothing else.
func TestCampaignRoundAllocBudgetWithBus(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	allocs, events := corroboratedRoundAllocs(t, obs.NewBus(0))
	if events < 1 {
		t.Fatalf("%.1f events a round: no fleet_fusion to count", events)
	}
	if budget := corroboratedRoundBudget + events; allocs > budget {
		t.Errorf("a warm corroborated round publishing %.1f events allocates %.1f objects, budget %.1f", events, allocs, budget)
	}
}

// corroboratedRoundBudget is what a warm corroborated round allocates with
// no bus: nothing. Its two scan waves (shards, then the re-probe) hand
// par.ForEach the campaign's waveFn and corrFn, built at Join, and wake a
// parked par helper from a recycled call (6 objects while each wave built a
// closure, a pool and a goroutine). Nothing per scan: each runs over its
// slot's kept wire, re-armed. The RoundReport is the campaign's.
const corroboratedRoundBudget = 0

// corroboratedRoundAllocs runs a three-vantage campaign, publishing on bus,
// whose every block is suspect and corroborated alive each round, and
// returns what a warm round allocates and how many events it publishes.
func corroboratedRoundAllocs(t *testing.T, bus *obs.Bus) (allocs, events float64) {
	t.Setenv(par.EnvWorkers, "2") // a scan wave recruits one helper, whatever the core count
	specs := []Spec{simSpec("v0", aliveResponder()), simSpec("v1", aliveResponder()), simSpec("v2", aliveResponder())}
	cfg := baseConfig()
	cfg.Bus = bus
	_, c, err := newSolo(specs, cfg, testTargets(t))
	if err != nil {
		t.Fatal(err)
	}
	above := func(int) (int, bool) { return density + 1, true } // every block reads below its belief
	r := 0
	round := func() {
		rd, rep, err := c.ScanRound(context.Background(), r, roundAt(r), above)
		if err != nil || rd == nil || rep.Suspects != 2 || rep.FusedAlive != 2 {
			t.Fatalf("round %d: %v, %+v", r, err, rep)
		}
		r++
	}
	round() // warm-up: builds every buffer, the suspect set and its permutation
	const runs = 20
	seq := bus.Seq()
	allocs = testing.AllocsPerRun(runs, round)
	return allocs, float64(bus.Seq()-seq) / (runs + 1) // AllocsPerRun runs one more round, unmeasured, first
}

// TestJoinScopesCampaign joins two campaigns to one fleet whose vantage v0
// never comes up. Each campaign's tallies and events carry its country, and
// the breaker every campaign shares stays unscoped. A caller-set
// Scan.Metrics (registered unscoped on the same registry, as a benchmark
// that assembles the fleet itself does) is kept, not re-registered through
// the scope, so Join does not panic on a label-arity conflict.
func TestJoinScopesCampaign(t *testing.T) {
	for _, callerMetrics := range []bool{false, true} {
		cfg := baseConfig()
		cfg.Registry, cfg.Bus = obs.NewRegistry(), obs.NewBus(1<<12)
		if callerMetrics {
			cfg.Scan.Metrics, cfg.Scan.Events = scanner.NewMetrics(cfg.Registry), cfg.Bus
		}
		s, err := NewShared([]Spec{errSpec("v0"), simSpec("v1", aliveResponder()), simSpec("v2", aliveResponder())}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var camps []*Campaign
		for _, cc := range []string{"UA", "RO"} {
			c, err := s.Join(CampaignConfig{Name: cc, Targets: testTargets(t), RateShare: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			camps = append(camps, c)
		}
		for r := 0; r < 2; r++ {
			for _, c := range camps {
				if _, _, err := c.ScanRound(context.Background(), r, roundAt(r), truthPrev); err != nil {
					t.Fatal(err)
				}
			}
		}

		kinds := make(map[string]int)
		for _, ev := range cfg.Bus.Since(0) {
			kinds[ev.Kind]++
			var hasCampaign bool
			switch ev.Fields.(type) {
			case BreakerTransitionEvent, VantagePoisonedEvent:
				hasCampaign = true
			}
			switch ev.Kind {
			case "breaker_transition", "vantage_poisoned":
				if ev.Country != "" || !hasCampaign {
					t.Errorf("shared %s event: country %q, campaign field %v", ev.Kind, ev.Country, hasCampaign)
				}
			case "retry": // the scans' own: on the caller's Scan.Events when it set them
				if (ev.Country == "") != callerMetrics {
					t.Errorf("retry event of country %q with caller metrics %v", ev.Country, callerMetrics)
				}
			default:
				if ev.Country != "UA" && ev.Country != "RO" || hasCampaign {
					t.Errorf("%s event: country %q, campaign field %v", ev.Kind, ev.Country, hasCampaign)
				}
			}
		}
		if kinds["shard_steal"] == 0 || kinds["breaker_transition"] == 0 {
			t.Fatalf("events %v: want steals and v0's breaker opening", kinds)
		}

		var b strings.Builder
		cfg.Registry.WritePrometheus(&b)
		text := b.String()
		sent := `scanner_probes_sent_total{country="UA"} `
		if callerMetrics {
			sent = "scanner_probes_sent_total "
		}
		for _, want := range []string{sent, `fleet_steals_total{country="UA"} 2`, `fleet_steals_total{country="RO"} 1`,
			`fleet_breaker_transitions_total{to="open"} 1`, `signals_fusion_total{country="RO",outcome="alive"}`} {
			if !strings.Contains(text, want) {
				t.Errorf("caller metrics %v: no %q in\n%s", callerMetrics, want, text)
			}
		}
	}
}

// slotWire is a simulated wire that logs, per scan time, which wire each
// scan re-armed: a fleet re-arms a transport before every scan over it, the
// first included.
type slotWire struct {
	*simnet.Network
	id  int
	log func(at time.Time, id int)
}

func (w *slotWire) Rearm(at time.Time) bool {
	w.log(at, w.id)
	return w.Network.Rearm(at)
}

// TestKeptTransportPerSlot opens v0's and v1's breakers, so that v2 scans all
// three shards of a round in one wave, concurrently. Each of those scans runs
// over a wire of its own, and v2's factory builds one wire per slot for the
// whole campaign: every later scan re-arms one. Every round still reads the
// truth.
func TestKeptTransportPerSlot(t *testing.T) {
	t.Setenv(par.EnvWorkers, "3")
	var (
		mu    sync.Mutex
		built int
		uses  = map[time.Time][]int{} // scan time → the wires scans re-armed at it
	)
	log := func(at time.Time, id int) {
		mu.Lock()
		uses[at] = append(uses[at], id)
		mu.Unlock()
	}
	v2 := Spec{Name: "v2", Transport: func(round int, at time.Time) (scanner.Transport, scanner.Clock, error) {
		mu.Lock()
		w := &slotWire{Network: simnet.New(netmodel.MustParseAddr("203.0.113.1"), aliveResponder(), at), id: built, log: log}
		built++
		mu.Unlock()
		return w, w, nil
	}}
	_, c, err := newSolo([]Spec{errSpec("v0"), errSpec("v1"), v2}, baseConfig(), testTargets(t))
	if err != nil {
		t.Fatal(err)
	}
	alone := 0 // rounds whose one wave was v2's three shards
	for r := 0; r < 8; r++ {
		rd, rep, err := c.ScanRound(context.Background(), r, roundAt(r), truthPrev)
		if err != nil {
			t.Fatal(err)
		}
		assertTruth(t, rd, r)
		if rep.Healthy != 1 || rep.Eligible != 1 || rep.Steals != 0 {
			continue
		}
		alone++
		ids := uses[roundAt(r)]
		if len(ids) != 3 || ids[0] == ids[1] || ids[0] == ids[2] || ids[1] == ids[2] {
			t.Errorf("round %d: v2's three shards ran over wires %v, want three distinct", r, ids)
		}
	}
	if alone == 0 {
		t.Fatal("v2 never scanned a round alone: the test shows nothing")
	}
	if built != 3 {
		t.Errorf("v2's factory built %d wires, want one per slot: 3", built)
	}
}
