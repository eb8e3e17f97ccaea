package simnet

import (
	"net/netip"
	"sort"
	"testing"
	"time"

	"countrymon/internal/icmp6"
	"countrymon/internal/scanner"
)

// TestNetwork6DeliveryOrder: the IPv6 wire, on the same queue as the IPv4
// one, delivers in (delivery time, write order) at instants struct-equal to
// start.Add(offset), with round-trip times on both sides of a calendar lap,
// negative ones, an hour and equal delivery times, and writes landing behind
// replies already read past.
func TestNetwork6DeliveryOrder(t *testing.T) {
	start := time.Date(2022, 3, 2, 22, 0, 0, 123456789, time.FixedZone("EET", 2*3600))
	local := netip.MustParseAddr("2001:db8::1")
	rtts := map[netip.Addr]time.Duration{}
	n := New6(local, func(dst netip.Addr, _ time.Time) Reply6 {
		return Reply6{Kind: EchoReply, RTT: rtts[dst]}
	}, start)

	type sent struct {
		seq uint16
		off int64 // delivery offset from start
	}
	var want []sent
	write := func(rtt time.Duration) {
		seq := uint16(len(want))
		dst := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 1, 14: byte(seq >> 8), 15: byte(seq)})
		rtts[dst] = rtt
		dg, err := icmp6.MarshalIPv6(icmp6.IPv6Header{NextHeader: icmp6.NextHeaderICMPv6, HopLimit: 64, Src: local, Dst: dst},
			icmp6.EchoRequest(local, dst, 7, seq, []byte{1, 2, 3, 4}))
		if err != nil {
			t.Fatal(err)
		}
		off := n.off + int64(rtt)
		if err := n.WritePacket(dg); err != nil {
			t.Fatal(err)
		}
		want = append(want, sent{seq: seq, off: off})
	}
	var got []sent
	read := func(k int) {
		for i := 0; i < k; i++ {
			pkt, at, err := n.ReadPacket(time.Hour)
			if err == scanner.ErrTimeout {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			h, body, err := icmp6.ParseIPv6(pkt)
			if err != nil {
				t.Fatal(err)
			}
			m, err := icmp6.Parse(h.Src, h.Dst, body)
			if err != nil || m.Type != icmp6.TypeEchoReply {
				t.Fatalf("reply %d: type %d, %v", len(got), m.Type, err)
			}
			off := int64(at.Sub(start))
			if at != start.Add(time.Duration(off)) {
				t.Fatalf("reply %d: instant %v is not start.Add(%d)", len(got), at, off)
			}
			got = append(got, sent{seq: m.Seq, off: off})
		}
	}

	lap := time.Duration(lapWidth)
	for _, rtt := range []time.Duration{lap + 1, lap - 1, lap, 2 * lap, bucketWidth, 0, lap, 0, lap - 1, 3 * time.Millisecond} {
		write(rtt)
	}
	read(5) // the clock moves to lap - 1, past the bucket of a write 3 ms behind it
	for _, rtt := range []time.Duration{-3 * time.Millisecond, 1, 0, lap + 2, time.Hour + 50*time.Millisecond, lap, -3 * time.Millisecond, 2*lap - 1, time.Hour} {
		write(rtt)
	}
	read(len(want))
	if n.queue.len() != 0 {
		t.Fatalf("%d replies left in flight", n.queue.len())
	}

	// The first five reads came before the second writes.
	sort.SliceStable(want[:10], func(i, j int) bool { return want[i].off < want[j].off })
	sort.SliceStable(want[5:], func(i, j int) bool { return want[5+i].off < want[5+j].off })
	if len(got) != len(want) {
		t.Fatalf("%d replies delivered, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d: seq %d at %d, want seq %d at %d", i, got[i].seq, got[i].off, want[i].seq, want[i].off)
		}
	}
}
