package scanner_test

import (
	"math/rand"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// respondEvens answers echo requests for even host bytes with a fixed RTT.
func respondEvens(rtt time.Duration) simnet.Responder {
	return simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		if dst.HostByte()%2 == 0 {
			return simnet.Reply{Kind: simnet.EchoReply, RTT: rtt}
		}
		return simnet.Reply{Kind: simnet.NoReply}
	})
}

func newTargets(t *testing.T, cidrs ...string) *scanner.TargetSet {
	t.Helper()
	var ps []netmodel.Prefix
	for _, c := range cidrs {
		ps = append(ps, netmodel.MustParsePrefix(c))
	}
	ts, err := scanner.NewTargetSet(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestScanOverSimnet(t *testing.T) {
	ts := newTargets(t, "91.198.4.0/23") // 2 blocks, 512 targets
	start := time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC)
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(40*time.Millisecond), start)
	sc := scanner.New(net, scanner.Config{
		Rate: 100000, Seed: 1, Epoch: 1, Clock: net, Cooldown: time.Second,
	})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.Sent != 512 {
		t.Errorf("Sent = %d, want 512", rd.Stats.Sent)
	}
	if rd.Stats.Valid != 256 {
		t.Errorf("Valid = %d, want 256 (every even host)", rd.Stats.Valid)
	}
	if rd.Stats.Duplicates != 0 || rd.Stats.Invalid != 0 {
		t.Errorf("dups=%d invalid=%d", rd.Stats.Duplicates, rd.Stats.Invalid)
	}
	for i := range rd.Blocks {
		br := &rd.Blocks[i]
		if br.RespCount != 128 {
			t.Errorf("block %v: RespCount = %d, want 128", br.Block, br.RespCount)
		}
		for h := 0; h < 256; h++ {
			want := h%2 == 0
			if br.Responded(uint8(h)) != want {
				t.Fatalf("block %v host %d: responded=%v want %v", br.Block, h, !want, want)
			}
		}
		rtt := br.MeanRTT()
		if rtt < 39*time.Millisecond || rtt > 41*time.Millisecond {
			t.Errorf("block %v mean RTT = %v, want ≈40ms", br.Block, rtt)
		}
	}
	if net.Pending() != 0 {
		t.Errorf("%d replies never delivered", net.Pending())
	}
}

func TestScanMeasuredRTTPerRegionDiffers(t *testing.T) {
	// Two blocks with different simulated RTTs must yield different means.
	blockA := netmodel.MustParseBlock("10.0.0.0/24")
	resp := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		rtt := 30 * time.Millisecond
		if dst.Block() == blockA {
			rtt = 120 * time.Millisecond
		}
		return simnet.Reply{Kind: simnet.EchoReply, RTT: rtt}
	})
	ts := newTargets(t, "10.0.0.0/24", "10.0.1.0/24")
	start := time.Unix(0, 0)
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), resp, start)
	sc := scanner.New(net, scanner.Config{Rate: 50000, Seed: 3, Epoch: 2, Clock: net, Cooldown: time.Second})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	var rttA, rttB time.Duration
	for i := range rd.Blocks {
		if rd.Blocks[i].Block == blockA {
			rttA = rd.Blocks[i].MeanRTT()
		} else {
			rttB = rd.Blocks[i].MeanRTT()
		}
	}
	if rttA < 115*time.Millisecond || rttA > 125*time.Millisecond {
		t.Errorf("rttA = %v, want ≈120ms", rttA)
	}
	if rttB < 25*time.Millisecond || rttB > 35*time.Millisecond {
		t.Errorf("rttB = %v, want ≈30ms", rttB)
	}
}

func TestScanSilentSpace(t *testing.T) {
	resp := simnet.ResponderFunc(func(netmodel.Addr, time.Time) simnet.Reply {
		return simnet.Reply{Kind: simnet.NoReply}
	})
	ts := newTargets(t, "10.1.0.0/24")
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), resp, time.Unix(0, 0))
	sc := scanner.New(net, scanner.Config{Rate: 0, Seed: 4, Clock: net, Cooldown: 100 * time.Millisecond})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.Valid != 0 || rd.Blocks[0].RespCount != 0 {
		t.Errorf("silent space produced replies: %+v", rd.Stats)
	}
}

func TestScanNonEchoCounted(t *testing.T) {
	resp := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		return simnet.Reply{Kind: simnet.HostUnreachable, RTT: 5 * time.Millisecond}
	})
	ts := newTargets(t, "10.2.0.0/24")
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), resp, time.Unix(0, 0))
	sc := scanner.New(net, scanner.Config{Rate: 0, Seed: 5, Clock: net, Cooldown: time.Second})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.NonEcho != 256 {
		t.Errorf("NonEcho = %d, want 256", rd.Stats.NonEcho)
	}
	if rd.Stats.Valid != 0 {
		t.Errorf("unreachables must not count as responsive; Valid = %d", rd.Stats.Valid)
	}
}

func TestScanVirtualDuration(t *testing.T) {
	// 256 targets at 1000 pps should take ≈0.26s of virtual time (plus
	// cooldown), regardless of wall-clock speed.
	ts := newTargets(t, "10.3.0.0/24")
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
	sc := scanner.New(net, scanner.Config{Rate: 1000, Burst: 1, Seed: 6, Clock: net, Cooldown: 500 * time.Millisecond})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.Elapsed < 255*time.Millisecond || rd.Stats.Elapsed > 900*time.Millisecond {
		t.Errorf("virtual elapsed = %v, want ≈0.26s+cooldown", rd.Stats.Elapsed)
	}
}

func TestTargetSetExclusion(t *testing.T) {
	ps := []netmodel.Prefix{netmodel.MustParsePrefix("10.0.0.0/22")}
	ex := []netmodel.Prefix{netmodel.MustParsePrefix("10.0.1.0/24")}
	ts, err := scanner.NewTargetSet(ps, ex)
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3", ts.NumBlocks())
	}
	if ts.BlockIndex(netmodel.MustParseAddr("10.0.1.5")) != -1 {
		t.Error("excluded block still indexed")
	}
	if ts.Len() != 3*256 {
		t.Errorf("Len = %d", ts.Len())
	}
}

func TestTargetSetDedup(t *testing.T) {
	ps := []netmodel.Prefix{
		netmodel.MustParsePrefix("10.0.0.0/24"),
		netmodel.MustParsePrefix("10.0.0.0/25"),
	}
	ts, err := scanner.NewTargetSet(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumBlocks() != 1 {
		t.Errorf("NumBlocks = %d, want 1", ts.NumBlocks())
	}
}

func TestTargetSetErrors(t *testing.T) {
	if _, err := scanner.NewTargetSet(nil, nil); err == nil {
		t.Error("empty target set accepted")
	}
	ps := []netmodel.Prefix{netmodel.MustParsePrefix("10.0.0.0/24")}
	if _, err := scanner.NewTargetSet(ps, ps); err == nil {
		t.Error("fully-excluded target set accepted")
	}
}

func TestTargetSetAddrMapping(t *testing.T) {
	ts := newTargets(t, "10.0.0.0/23")
	if got := ts.Addr(0); got != netmodel.MustParseAddr("10.0.0.0") {
		t.Errorf("Addr(0) = %v", got)
	}
	if got := ts.Addr(257); got != netmodel.MustParseAddr("10.0.1.1") {
		t.Errorf("Addr(257) = %v", got)
	}
}

// TargetSet.BlockIndex against the map it used to be: over random prefixes of
// mixed lengths with overlaps and exclusions, every address of a target block
// maps to the block's sorted position and everything else — excluded blocks,
// the neighbours of targets, both ends of the address range — to -1.
func TestTargetSetBlockIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		draw := func(n int) []netmodel.Prefix {
			ps := make([]netmodel.Prefix, n)
			for i := range ps {
				base := netmodel.Addr(10<<24 | r.Intn(1<<14)<<10) // inside 10.0.0.0/8, /22-aligned
				ps[i] = netmodel.MustNewPrefix(base|netmodel.Addr(r.Intn(1<<10)), uint8(18+r.Intn(9)))
			}
			return ps
		}
		prefixes, exclude := draw(1+r.Intn(12)), draw(r.Intn(4))
		if seed%5 == 0 {
			prefixes = append(prefixes, netmodel.MustParsePrefix("0.0.0.0/24"), netmodel.MustParsePrefix("255.255.255.0/24"))
		}
		ts, err := scanner.NewTargetSet(prefixes, exclude)
		if err != nil {
			continue // everything excluded
		}
		index := make(map[netmodel.BlockID]int, ts.NumBlocks())
		for i, b := range ts.Blocks() {
			index[b] = i
		}
		check := func(b netmodel.BlockID) {
			want, ok := index[b]
			if !ok {
				want = -1
			}
			if got := ts.BlockIndex(b.Addr(uint8(r.Intn(256)))); got != want {
				t.Fatalf("seed %d: BlockIndex(%v) = %d, map says %d", seed, b, got, want)
			}
		}
		for _, b := range ts.Blocks() {
			check(b)
			check((b - 1) & 0xffffff)
			check((b + 1) & 0xffffff)
		}
		for _, e := range exclude {
			for _, b := range e.Blocks(nil) {
				check(b)
			}
		}
		for i := 0; i < 2000; i++ {
			check(netmodel.BlockID(r.Intn(1 << 24)))
		}
	}
}

func TestProbesPerAddrRecoversLoss(t *testing.T) {
	// A transport that drops every address's first probe: with one probe
	// per address nothing answers; with two, everything live does.
	ts := newTargets(t, "10.7.0.0/24")
	run := func(probes int) uint64 {
		net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(10*time.Millisecond), time.Unix(0, 0))
		lossy := &lossyTransport{inner: net, seen: make(map[netmodel.Addr]bool)}
		sc := scanner.New(lossy, scanner.Config{
			Rate: 0, Seed: 8, Epoch: 1, Clock: net,
			Cooldown: 500 * time.Millisecond, ProbesPerAddr: probes,
		})
		rd, err := sc.Run(ts)
		if err != nil {
			t.Fatal(err)
		}
		return rd.Stats.Valid
	}
	if got := run(1); got != 0 {
		t.Errorf("single probe through first-drop transport: valid = %d, want 0", got)
	}
	if got := run(2); got != 128 {
		t.Errorf("retransmission: valid = %d, want 128", got)
	}
}
