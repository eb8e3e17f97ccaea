package simnet

import (
	"math"
	"testing"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
)

type delivery struct {
	pkt string
	at  time.Time
}

// TestReadPathsDeliverSameBytesAndInstants drives two wires through the same
// script, one read a packet at a time and one in batches: both deliver the
// same bytes at the same instants and leave the same clock, and every
// instant is struct-equal — wall, monotonic and location — to the wire's
// start plus the offset the reply was due at. The start is not UTC and not
// on a second, and the RTTs include ties, zero and a negative one.
func TestReadPathsDeliverSameBytesAndInstants(t *testing.T) {
	start := time.Date(2022, 3, 2, 22, 0, 0, 123456789, time.FixedZone("EET", 2*3600))
	src := netmodel.MustParseAddr("198.51.100.1")
	rtts := []time.Duration{7 * time.Millisecond, 3 * time.Millisecond, 7 * time.Millisecond, 0,
		-2 * time.Millisecond, 40 * time.Millisecond, 3*time.Millisecond + 1, 11 * time.Millisecond}
	rttOf := func(dst netmodel.Addr) time.Duration { return rtts[int(dst)%len(rtts)] }
	resp := ResponderFunc(func(dst netmodel.Addr, _ time.Time) Reply {
		return Reply{Kind: EchoReply, RTT: rttOf(dst)}
	})

	// One step: write `write` probes, sleep, then read with `wait` into a
	// batch of `room` slots.
	steps := []struct {
		write int
		sleep time.Duration
		wait  time.Duration
		room  int
	}{
		{24, 0, 0, 8}, {0, 0, 0, 64}, {16, 4 * time.Millisecond, 0, 64}, {0, 0, 5 * time.Millisecond, 4},
		{8, 0, time.Millisecond, 64}, {0, 0, 2 * time.Millisecond, 64}, {32, 10 * time.Millisecond, 0, 5},
		{0, 0, 0, 64}, {0, 0, time.Second, 1},
	}
	for i := 0; i < 8; i++ { // each waited read delivers one instant's replies
		steps = append(steps, steps[len(steps)-1])
		steps[len(steps)-1].room = 64
	}

	run := func(batched bool) ([]delivery, map[netmodel.Addr]time.Duration, []time.Time) {
		n := New(src, resp, start)
		sentAt := map[netmodel.Addr]time.Duration{} // offset each probe was written at
		var got []delivery
		var clocks []time.Time
		next := netmodel.MustParseAddr("10.3.0.0")
		for _, st := range steps {
			for i := 0; i < st.write; i++ {
				sentAt[next] = n.Now().Sub(start)
				if err := n.WritePacket(probeFor(next, src)); err != nil {
					t.Fatal(err)
				}
				next++
			}
			n.Sleep(st.sleep)
			if batched {
				pkts, ats := make([][]byte, st.room), make([]time.Time, st.room)
				k, err := n.ReadBatch(pkts, ats, st.wait)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					got = append(got, delivery{string(pkts[i]), ats[i]})
				}
			} else {
				// What ReadBatch promises, a packet at a time: only the
				// first read waits.
				wait := st.wait
				for i := 0; i < st.room; i++ {
					pkt, at, err := n.ReadPacket(wait)
					wait = 0
					if err == scanner.ErrTimeout {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, delivery{string(pkt), at})
				}
			}
			clocks = append(clocks, n.Now())
		}
		if n.Pending() != 0 {
			t.Fatalf("script left %d replies pending", n.Pending())
		}
		return got, sentAt, clocks
	}

	single, sentAt, singleClocks := run(false)
	batch, _, batchClocks := run(true)
	if len(single) != len(sentAt) || len(batch) != len(single) {
		t.Fatalf("delivered %d by ReadPacket, %d by ReadBatch, of %d probes", len(single), len(batch), len(sentAt))
	}
	for i := range single {
		if single[i] != batch[i] {
			t.Fatalf("delivery %d: ReadPacket (%x, %v), ReadBatch (%x, %v)", i, single[i].pkt, single[i].at, batch[i].pkt, batch[i].at)
		}
		h, _, err := icmp.ParseIPv4([]byte(single[i].pkt))
		if err != nil {
			t.Fatal(err)
		}
		if want := start.Add(sentAt[h.Src] + rttOf(h.Src)); single[i].at != want {
			t.Errorf("delivery %d from %v: at %#v, want start+offset %#v", i, h.Src, single[i].at, want)
		}
	}
	for i := range singleClocks {
		if singleClocks[i] != batchClocks[i] {
			t.Errorf("after step %d: ReadPacket clock %v, ReadBatch clock %v", i, singleClocks[i], batchClocks[i])
		}
	}
}

// TestDeliveryTimeSaturates: a delivery time past the int64 range of the
// wire's clock stays in the unreachable future instead of wrapping into the
// past, and the clock itself stops at the end of its range.
func TestDeliveryTimeSaturates(t *testing.T) {
	start := time.Unix(0, 0)
	src := netmodel.MustParseAddr("198.51.100.1")
	never := netmodel.MustParseAddr("10.0.0.1")
	n := New(src, ResponderFunc(func(dst netmodel.Addr, _ time.Time) Reply {
		if dst == never {
			return Reply{Kind: EchoReply, RTT: math.MaxInt64}
		}
		return Reply{Kind: EchoReply, RTT: time.Millisecond}
	}), start)
	n.Sleep(time.Hour) // so that now + RTT overflows
	n.WritePacket(probeFor(never, src))
	n.WritePacket(probeFor(netmodel.MustParseAddr("10.0.0.2"), src))

	pkt, at, err := n.ReadPacket(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h, _, _ := icmp.ParseIPv4(pkt); h.Src == never || !at.Equal(start.Add(time.Hour+time.Millisecond)) {
		t.Fatalf("first delivery from %v at %v, want the 1ms reply", h.Src, at)
	}
	if _, _, err := n.ReadPacket(1000 * time.Hour); err != scanner.ErrTimeout {
		t.Fatalf("reply with RTT MaxInt64 delivered (err %v): its delivery time wrapped", err)
	}
	if k, err := n.ReadBatch(make([][]byte, 4), make([]time.Time, 4), 0); k != 0 || err != nil {
		t.Fatalf("ReadBatch = %d, %v", k, err)
	}
	if n.Pending() != 1 {
		t.Errorf("Pending = %d, want the undeliverable reply", n.Pending())
	}
	before := n.Now()
	n.Sleep(math.MaxInt64)
	if now := n.Now(); now.Before(before) {
		t.Errorf("clock went backwards over the end of its range: %v -> %v", before, now)
	}
}
