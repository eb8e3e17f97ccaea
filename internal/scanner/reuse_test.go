package scanner_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// stalled forwards sends but never surfaces a reply: every read consumes its
// wait and times out, as a wedged receive path does.
type stalled struct{ inner *simnet.Network }

func (s *stalled) LocalAddr() netmodel.Addr   { return s.inner.LocalAddr() }
func (s *stalled) WritePacket(b []byte) error { return s.inner.WritePacket(b) }
func (s *stalled) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	s.inner.Sleep(wait)
	return nil, time.Time{}, scanner.ErrTimeout
}

// cancelAfter forwards to inner and cancels the round's context once n
// probes have gone out, so the round stops at its next batch boundary.
type cancelAfter struct {
	inner  scanner.Transport
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) LocalAddr() netmodel.Addr { return c.inner.LocalAddr() }
func (c *cancelAfter) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	return c.inner.ReadPacket(wait)
}
func (c *cancelAfter) WritePacket(b []byte) error {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.inner.WritePacket(b)
}

// reuseRound builds one deterministic round — its transport, clock and
// context — from nothing, so the same round can be scanned twice.
type reuseRound func() (scanner.Transport, scanner.Clock, context.Context)

func onWire(resp simnet.Responder, wrap func(*simnet.Network) scanner.Transport) reuseRound {
	return func() (scanner.Transport, scanner.Clock, context.Context) {
		net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), resp, time.Unix(0, 0))
		var tr scanner.Transport = net
		if wrap != nil {
			tr = wrap(net)
		}
		return tr, net, context.Background()
	}
}

// TestRunIntoMatchesFresh: a scan into a RoundData that already holds a
// round — a responsive one over a larger target set — equals a scan into a
// fresh one in every field, whatever the second round turns out to be.
func TestRunIntoMatchesFresh(t *testing.T) {
	big := newTargets(t, "91.198.0.0/21")
	small := newTargets(t, "91.198.4.0/23")
	dark := simnet.ResponderFunc(func(netmodel.Addr, time.Time) simnet.Reply { return simnet.Reply{} })
	full := func(rd *scanner.RoundData) bool { return !rd.Partial && rd.Probed == rd.ShardTargets }
	rounds := []struct {
		name  string
		round reuseRound
		is    func(*scanner.RoundData, error) bool // what the fresh round must be
	}{
		{"responsive", onWire(respondEvens(40*time.Millisecond), nil), func(rd *scanner.RoundData, err error) bool {
			return full(rd) && rd.Stats.Valid > 0
		}},
		{"dark", onWire(dark, nil), func(rd *scanner.RoundData, err error) bool {
			return full(rd) && rd.Stats.Valid == 0
		}},
		{"stalled", onWire(respondEvens(40*time.Millisecond), func(n *simnet.Network) scanner.Transport {
			return &stalled{inner: n}
		}), func(rd *scanner.RoundData, err error) bool {
			return full(rd) && rd.Stats.Valid == 0 && rd.Stats.Sent > 0
		}},
		{"recv dead", onWire(respondEvens(40*time.Millisecond), func(n *simnet.Network) scanner.Transport {
			return &deadReceiver{inner: n, err: &transientErr{"injected recv failure"}}
		}), func(rd *scanner.RoundData, err error) bool {
			return rd.RecvDead && rd.Err != nil
		}},
		{"send budget", onWire(respondEvens(40*time.Millisecond), func(n *simnet.Network) scanner.Transport {
			return &deadSender{inner: n}
		}), func(rd *scanner.RoundData, err error) bool {
			return rd.Partial && !rd.RecvDead && rd.Err != nil && err == nil
		}},
		{"cancelled", func() (scanner.Transport, scanner.Clock, context.Context) {
			tr, clk, _ := onWire(respondEvens(40*time.Millisecond), nil)()
			ctx, cancel := context.WithCancel(context.Background())
			return &cancelAfter{inner: tr, n: 300, cancel: cancel}, clk, ctx
		}, func(rd *scanner.RoundData, err error) bool {
			return rd.Partial && rd.Probed > 0 && errors.Is(err, context.Canceled)
		}},
	}
	scan := func(round reuseRound, ts *scanner.TargetSet, epoch uint32, rd *scanner.RoundData) (*scanner.RoundData, error) {
		tr, clk, ctx := round()
		cfg := scanner.Config{Rate: 100000, Seed: 42, Epoch: epoch, Clock: clk, Cooldown: time.Second, MaxRecvErrors: 8}
		return scanner.New(tr, cfg).RunInto(ctx, ts, rd)
	}
	for _, rc := range rounds {
		for _, ts := range []*scanner.TargetSet{big, small} {
			want, wantErr := scan(rc.round, ts, 2, nil)
			if want == nil || !rc.is(want, wantErr) {
				t.Fatalf("%s over %d blocks: the fresh round is not one (err %v): %+v", rc.name, ts.NumBlocks(), wantErr, want)
			}
			var rd scanner.RoundData
			if _, err := scan(rounds[0].round, big, 1, &rd); err != nil {
				t.Fatal(err)
			}
			if rd.Stats.Valid == 0 {
				t.Fatal("the first round left nothing in the buffer to leak")
			}
			got, err := scan(rc.round, ts, 2, &rd)
			if got != &rd {
				t.Fatalf("%s over %d blocks: RunInto returned %p, not the buffer it was given", rc.name, ts.NumBlocks(), got)
			}
			if !reflect.DeepEqual(err, wantErr) {
				t.Errorf("%s over %d blocks: err %v, fresh %v", rc.name, ts.NumBlocks(), err, wantErr)
			}
			if !reflect.DeepEqual(*got, *want) {
				t.Errorf("%s over %d blocks: reused buffer differs from a fresh one:\n got %+v\nwant %+v",
					rc.name, ts.NumBlocks(), got.Stats, want.Stats)
			}
		}
	}
}

// TestMergeRoundsIntoUsedBuffer: a merge into a RoundData that holds an
// earlier, larger merge equals a merge into a fresh one.
func TestMergeRoundsIntoUsedBuffer(t *testing.T) {
	big := newTargets(t, "91.198.0.0/21")
	small := newTargets(t, "91.198.4.0/23")
	shards := func(ts *scanner.TargetSet, resp simnet.Responder) []*scanner.RoundData {
		var rds []*scanner.RoundData
		for sh := 0; sh < 3; sh++ {
			net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), resp, time.Unix(0, 0))
			rd, err := scanner.New(net, scanner.Config{
				Rate: 100000, Seed: 42, Epoch: 1, Clock: net, Cooldown: time.Second, Shard: sh, Shards: 3,
			}).Run(ts)
			if err != nil {
				t.Fatal(err)
			}
			rds = append(rds, rd)
		}
		return rds
	}
	dark := simnet.ResponderFunc(func(netmodel.Addr, time.Time) simnet.Reply { return simnet.Reply{} })
	for _, ts := range []*scanner.TargetSet{big, small} {
		second := shards(ts, dark)
		second[1] = &scanner.RoundData{Targets: ts, ShardTargets: second[1].ShardTargets, Partial: true}
		want := scanner.MergeRounds(nil, ts, second)

		var out scanner.RoundData
		scanner.MergeRounds(&out, big, shards(big, respondEvens(40*time.Millisecond)))
		if out.Stats.Valid == 0 {
			t.Fatal("the first merge left nothing in the buffer to leak")
		}
		if got := scanner.MergeRounds(&out, ts, second); got != &out || !reflect.DeepEqual(*got, *want) {
			t.Errorf("merge over %d blocks into a used buffer differs from a fresh one:\n got %+v\nwant %+v",
				ts.NumBlocks(), out.Stats, want.Stats)
		}
	}
}

// TestPermutationFollowsSeed: a target set scanned under one seed, then
// another, then the first again, probes in the order a fresh target set does
// under each seed. Only the first 2 ms of each scan are answered, so which
// hosts reply depends on the probe order.
func TestPermutationFollowsSeed(t *testing.T) {
	start := time.Unix(0, 0)
	early := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		if at.Sub(start) < 2*time.Millisecond {
			return simnet.Reply{Kind: simnet.EchoReply, RTT: 10 * time.Millisecond}
		}
		return simnet.Reply{}
	})
	scan := func(ts *scanner.TargetSet, seed uint64) []scanner.BlockResult {
		net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), early, start)
		rd, err := scanner.New(net, scanner.Config{Rate: 100000, Seed: seed, Epoch: 1, Clock: net, Cooldown: time.Second}).Run(ts)
		if err != nil {
			t.Fatal(err)
		}
		return rd.Blocks
	}
	shared := newTargets(t, "91.198.4.0/23")
	orders := map[string]bool{}
	for _, seed := range []uint64{1, 2, 1} {
		got, want := scan(shared, seed), scan(newTargets(t, "91.198.4.0/23"), seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: a target set scanned before under another seed answers differently from a fresh one", seed)
		}
		orders[fmt.Sprint(got)] = true
	}
	if len(orders) != 2 {
		t.Fatalf("%d distinct answer sets from two seeds: the responder does not reveal the probe order", len(orders))
	}
}

// TestRefillMatchesNew: a target set refilled larger, then smaller, then to
// the same length with other blocks is, after each fill, the set
// NewTargetSet builds from the same blocks: the same block list, the same
// index (a block of the fill before that is no longer a member is not
// found), and the same round under one seed. Only the first 2 ms of a scan
// are answered, so the round also shows that the probe order is the fresh
// set's; the permutation the refilled set keeps walks the fresh set's order
// outright, and it is the one the first scan built, re-derived in place. A
// list that is empty, unsorted or has a duplicate is rejected and leaves the
// set as it was.
func TestRefillMatchesNew(t *testing.T) {
	start := time.Unix(0, 0)
	early := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		if at.Sub(start) < 2*time.Millisecond {
			return simnet.Reply{Kind: simnet.EchoReply, RTT: 10 * time.Millisecond}
		}
		return simnet.Reply{}
	})
	scan := func(ts *scanner.TargetSet) scanner.RoundData {
		net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), early, start)
		rd, err := scanner.New(net, scanner.Config{Rate: 100000, Seed: 3, Epoch: 1, Clock: net, Cooldown: time.Second}).Run(ts)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Probed != int(ts.Len()) || rd.Stats.Valid == 0 {
			t.Fatalf("a scan of %d blocks probed %d of %d targets, %d answered", ts.NumBlocks(), rd.Probed, ts.Len(), rd.Stats.Valid)
		}
		out := *rd
		out.Targets = nil
		return out
	}

	order := func(pm *scanner.Permutation) []uint64 {
		var out []uint64
		for c := pm.Iterate(); ; {
			i, ok := c.Next()
			if !ok {
				return out
			}
			out = append(out, i)
		}
	}

	set := newTargets(t, "91.198.4.0/23")
	scan(set) // leaves a permutation of the first fill's length behind
	kept := scanner.KeptPermutation(set)
	prev := set.Blocks()
	fills := []struct {
		name  string
		cidrs []string
	}{
		{"larger", []string{"91.198.0.0/21"}},
		{"smaller", []string{"10.0.0.0/24", "10.0.5.0/24", "172.16.9.0/24"}},
		{"same length, other blocks", []string{"10.0.1.0/24", "10.0.7.0/24", "192.0.2.0/24"}},
	}
	for _, f := range fills {
		want := newTargets(t, f.cidrs...)
		if err := set.Refill(want.Blocks()); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !reflect.DeepEqual(set.Blocks(), want.Blocks()) || set.Len() != want.Len() {
			t.Fatalf("%s: blocks %v, NewTargetSet's %v", f.name, set.Blocks(), want.Blocks())
		}
		for _, b := range append(append([]netmodel.BlockID(nil), prev...), want.Blocks()...) {
			if got, exp := set.BlockIndex(b.First()), want.BlockIndex(b.First()); got != exp {
				t.Fatalf("%s: BlockIndex(%v) = %d, NewTargetSet's %d", f.name, b, got, exp)
			}
		}
		if got, exp := scan(set), scan(want); !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s: the refilled set scans differently from a new one:\n got %+v\nwant %+v", f.name, got.Stats, exp.Stats)
		}
		if pm := scanner.KeptPermutation(set); pm != kept {
			t.Fatalf("%s: the refilled set's scan built a new permutation instead of keeping the re-derived one", f.name)
		}
		if got, exp := order(kept), order(scanner.KeptPermutation(want)); !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s: the refilled set walks %d targets in another order than a new set's %d", f.name, len(got), len(exp))
		}
		prev = append([]netmodel.BlockID(nil), want.Blocks()...)
	}

	b := prev
	for name, bad := range map[string][]netmodel.BlockID{
		"empty":     nil,
		"unsorted":  {b[1], b[0], b[2]},
		"duplicate": {b[0], b[1], b[1], b[2]},
	} {
		if err := set.Refill(bad); err == nil {
			t.Errorf("Refill accepted a %s list", name)
		}
		if !reflect.DeepEqual(set.Blocks(), prev) {
			t.Fatalf("a rejected %s list changed the set to %v", name, set.Blocks())
		}
	}
}
