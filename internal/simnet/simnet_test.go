package simnet

import (
	"errors"
	"net"
	"testing"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
)

func echoAll(rtt time.Duration) Responder {
	return ResponderFunc(func(netmodel.Addr, time.Time) Reply {
		return Reply{Kind: EchoReply, RTT: rtt}
	})
}

func probeFor(dst netmodel.Addr, src netmodel.Addr) []byte {
	return icmp.AppendMarshalIPv4(nil, icmp.IPv4Header{TTL: 64, Protocol: icmp.ProtoICMP, Src: src, Dst: dst},
		icmp.Message{Type: icmp.TypeEchoRequest, ID: 1, Seq: 2, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 0}})
}

func TestNetworkDeliversAfterRTT(t *testing.T) {
	start := time.Unix(100, 0)
	src := netmodel.MustParseAddr("198.51.100.1")
	dst := netmodel.MustParseAddr("91.198.4.1")
	n := New(src, echoAll(50*time.Millisecond), start)

	if err := n.WritePacket(probeFor(dst, src)); err != nil {
		t.Fatal(err)
	}
	// Not due yet at wait=0.
	if _, _, err := n.ReadPacket(0); err != scanner.ErrTimeout {
		t.Fatalf("expected timeout before RTT elapsed, got %v", err)
	}
	pkt, at, err := n.ReadPacket(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := start.Add(50 * time.Millisecond); !at.Equal(want) {
		t.Errorf("delivered at %v, want %v", at, want)
	}
	h, body, err := icmp.ParseIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Src != dst || h.Dst != src {
		t.Errorf("reply addressing wrong: %v -> %v", h.Src, h.Dst)
	}
	m, err := icmp.Parse(body)
	if err != nil || m.Type != icmp.TypeEchoReply {
		t.Errorf("reply not an echo reply: %v %v", m.Type, err)
	}
	// Virtual clock advanced to delivery time.
	if !n.Now().Equal(start.Add(50 * time.Millisecond)) {
		t.Errorf("clock = %v", n.Now())
	}
}

func TestNetworkOrdersByDeliveryTime(t *testing.T) {
	start := time.Unix(0, 0)
	src := netmodel.MustParseAddr("198.51.100.1")
	slow := netmodel.MustParseAddr("10.0.0.1")
	fast := netmodel.MustParseAddr("10.0.0.2")
	n := New(src, ResponderFunc(func(d netmodel.Addr, _ time.Time) Reply {
		if d == slow {
			return Reply{Kind: EchoReply, RTT: 100 * time.Millisecond}
		}
		return Reply{Kind: EchoReply, RTT: 10 * time.Millisecond}
	}), start)

	n.WritePacket(probeFor(slow, src)) // sent first, arrives second
	n.WritePacket(probeFor(fast, src))

	pkt1, _, err := n.ReadPacket(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h1, _, _ := icmp.ParseIPv4(pkt1)
	if h1.Src != fast {
		t.Errorf("first delivery from %v, want fast responder", h1.Src)
	}
	pkt2, _, err := n.ReadPacket(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, _ := icmp.ParseIPv4(pkt2)
	if h2.Src != slow {
		t.Errorf("second delivery from %v, want slow responder", h2.Src)
	}
}

func TestNetworkTimeoutAdvancesClock(t *testing.T) {
	start := time.Unix(0, 0)
	n := New(netmodel.MustParseAddr("198.51.100.1"), echoAll(time.Hour), start)
	_, _, err := n.ReadPacket(200 * time.Millisecond)
	if err != scanner.ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	if !n.Now().Equal(start.Add(200 * time.Millisecond)) {
		t.Errorf("clock = %v, want start+200ms", n.Now())
	}
}

// A reply that is pending but due later than now+wait is a timeout like any
// other: the wait is consumed, whichever read path is asked.
func TestReadBatchConsumesWaitLikeReadPacket(t *testing.T) {
	start := time.Unix(0, 0)
	src := netmodel.MustParseAddr("198.51.100.1")
	dst := netmodel.MustParseAddr("10.0.0.1")

	single := New(src, echoAll(time.Hour), start)
	single.WritePacket(probeFor(dst, src))
	if _, _, err := single.ReadPacket(200 * time.Millisecond); err != scanner.ErrTimeout {
		t.Fatalf("ReadPacket err = %v", err)
	}

	batch := New(src, echoAll(time.Hour), start)
	batch.WritePacket(probeFor(dst, src))
	if k, err := batch.ReadBatch(make([][]byte, 4), make([]time.Time, 4), 200*time.Millisecond); k != 0 || err != nil {
		t.Fatalf("ReadBatch = %d, %v", k, err)
	}

	if want := start.Add(200 * time.Millisecond); !single.Now().Equal(want) || !batch.Now().Equal(want) {
		t.Errorf("clock after a 200ms wait: ReadPacket %v, ReadBatch %v, want %v", single.Now(), batch.Now(), want)
	}
	if batch.Pending() != 1 {
		t.Errorf("Pending = %d, want the undelivered reply", batch.Pending())
	}
}

func TestNetworkDropsSilent(t *testing.T) {
	n := New(netmodel.MustParseAddr("198.51.100.1"),
		ResponderFunc(func(netmodel.Addr, time.Time) Reply { return Reply{Kind: NoReply} }),
		time.Unix(0, 0))
	n.WritePacket(probeFor(netmodel.MustParseAddr("10.0.0.1"), netmodel.MustParseAddr("198.51.100.1")))
	sent, delivered, dropped := n.Counters()
	if sent != 1 || delivered != 0 || dropped != 1 {
		t.Errorf("counters = %d/%d/%d", sent, delivered, dropped)
	}
	if n.Pending() != 0 {
		t.Error("silent probe left a pending reply")
	}
}

func TestNetworkRejectsGarbage(t *testing.T) {
	n := New(netmodel.MustParseAddr("198.51.100.1"), echoAll(0), time.Unix(0, 0))
	if err := n.WritePacket([]byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestWireServerEndToEnd(t *testing.T) {
	// Real sockets: scanner -> UDP tunnel -> wire server -> replies.
	resp := ResponderFunc(func(dst netmodel.Addr, _ time.Time) Reply {
		if dst.HostByte() < 100 {
			return Reply{Kind: EchoReply}
		}
		return Reply{Kind: NoReply}
	})
	srv, err := NewWireServer("127.0.0.1:0", resp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr, err := DialUDP(srv.Addr(), netmodel.MustParseAddr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ts, err := scanner.NewTargetSet([]netmodel.Prefix{netmodel.MustParsePrefix("10.9.0.0/24")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := scanner.New(tr, scanner.Config{Rate: 20000, Seed: 11, Epoch: 3, Cooldown: 300 * time.Millisecond})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.Sent != 256 {
		t.Errorf("Sent = %d", rd.Stats.Sent)
	}
	// UDP on loopback is reliable in practice; allow a tiny slack anyway.
	if rd.Stats.Valid < 95 || rd.Stats.Valid > 100 {
		t.Errorf("Valid = %d, want ≈100", rd.Stats.Valid)
	}
	if got := rd.Blocks[0].RespCount; got != uint16(rd.Stats.Valid) {
		t.Errorf("block count %d != valid %d", got, rd.Stats.Valid)
	}
}

// TestUseAfterCloseFails: every write and read of a closed network returns
// net.ErrClosed, before and after a second Close, and it does not re-arm.
func TestUseAfterCloseFails(t *testing.T) {
	src := netmodel.MustParseAddr("198.51.100.1")
	n := New(src, echoAll(10*time.Millisecond), time.Unix(0, 0))
	probe := probeFor(netmodel.MustParseAddr("91.198.4.1"), src)
	if err := n.WritePacket(probe); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if err := n.WritePacket(probe); !errors.Is(err, net.ErrClosed) {
			t.Errorf("WritePacket after Close: %v", err)
		}
		if k, err := n.WriteBatch([][]byte{probe}); k != 0 || !errors.Is(err, net.ErrClosed) {
			t.Errorf("WriteBatch after Close: %d, %v", k, err)
		}
		if pkt, _, err := n.ReadPacket(time.Second); pkt != nil || !errors.Is(err, net.ErrClosed) {
			t.Errorf("ReadPacket after Close: %x, %v", pkt, err)
		}
		if k, err := n.ReadBatch(make([][]byte, 1), make([]time.Time, 1), time.Second); k != 0 || !errors.Is(err, net.ErrClosed) {
			t.Errorf("ReadBatch after Close: %d, %v", k, err)
		}
		if n.Rearm(time.Unix(0, 0)) {
			t.Error("a closed network re-armed")
		}
	}
}
