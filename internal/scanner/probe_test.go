package scanner

import (
	"testing"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
)

// probeMsg encodes v's probe for dst sent at `at` and parses it back the way
// the far end does.
func probeMsg(t *testing.T, v *Validator, dst netmodel.Addr, at time.Time) icmp.Message {
	t.Helper()
	pkt := v.AppendProbeIPv4(nil, icmp.IPv4Header{
		TTL: 64, Protocol: icmp.ProtoICMP, Src: netmodel.MustParseAddr("198.51.100.1"), Dst: dst,
	}, at)
	h, body, err := icmp.ParseIPv4(pkt)
	if err != nil || h.Dst != dst || h.Protocol != icmp.ProtoICMP {
		t.Fatalf("probe header %+v: %v", h, err)
	}
	m, err := icmp.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// echoOf is the echo reply a host sends back for m, off the wire.
func echoOf(t *testing.T, m icmp.Message) icmp.Message {
	t.Helper()
	reply, err := icmp.Parse(icmp.AppendMarshal(nil, icmp.Message{
		Type: icmp.TypeEchoReply, ID: m.ID, Seq: m.Seq, Payload: m.Payload,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestProbeRoundTrip(t *testing.T) {
	start := time.Unix(1000, 0)
	v := NewValidator(0xdeadbeef, 7, start)
	dst := netmodel.MustParseAddr("91.198.4.9")

	sent := start.Add(123 * time.Millisecond)
	reply := echoOf(t, probeMsg(t, v, dst, sent))
	recv := sent.Add(45 * time.Millisecond)
	pr, ok := v.DecodeReply(dst, reply, recv)
	if !ok {
		t.Fatal("valid reply rejected")
	}
	if pr.From != dst {
		t.Errorf("From = %v", pr.From)
	}
	if pr.RTT != 45*time.Millisecond {
		t.Errorf("RTT = %v, want 45ms", pr.RTT)
	}
}

func TestProbeRejectsWrongSource(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewValidator(1, 1, start)
	dst := netmodel.MustParseAddr("10.0.0.1")
	other := netmodel.MustParseAddr("10.0.0.2")
	reply := echoOf(t, probeMsg(t, v, dst, start))
	if _, ok := v.DecodeReply(other, reply, start); ok {
		t.Error("reply from wrong address accepted (spoofing not detected)")
	}
}

func TestProbeRejectsWrongEpoch(t *testing.T) {
	start := time.Unix(0, 0)
	v1 := NewValidator(1, 1, start)
	v2 := NewValidator(1, 2, start)
	dst := netmodel.MustParseAddr("10.0.0.1")
	reply := echoOf(t, probeMsg(t, v1, dst, start))
	if _, ok := v2.DecodeReply(dst, reply, start); ok {
		t.Error("stale-epoch reply accepted")
	}
}

func TestProbeRejectsEchoRequest(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewValidator(1, 1, start)
	dst := netmodel.MustParseAddr("10.0.0.1")
	m := probeMsg(t, v, dst, start)
	if _, ok := v.DecodeReply(dst, m, start); ok {
		t.Error("echo *request* accepted as reply")
	}
}

func TestProbeRejectsShortPayload(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewValidator(1, 1, start)
	dst := netmodel.MustParseAddr("10.0.0.1")
	id, seq := v.idSeq(dst)
	reply, _ := icmp.Parse(icmp.AppendMarshal(nil, icmp.Message{Type: icmp.TypeEchoReply, ID: id, Seq: seq, Payload: []byte{1, 2}}))
	if _, ok := v.DecodeReply(dst, reply, start); ok {
		t.Error("short-payload reply accepted")
	}
}

func TestProbeNegativeRTTClamped(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewValidator(1, 1, start)
	dst := netmodel.MustParseAddr("10.0.0.1")
	reply := echoOf(t, probeMsg(t, v, dst, start.Add(500*time.Millisecond)))
	// Receive "before" send (clock skew); RTT must clamp to 0, not go negative.
	pr, ok := v.DecodeReply(dst, reply, start.Add(100*time.Millisecond))
	if !ok {
		t.Fatal("reply rejected")
	}
	if pr.RTT != 0 {
		t.Errorf("RTT = %v, want 0", pr.RTT)
	}
}

func TestIDSeqDispersion(t *testing.T) {
	v := NewValidator(99, 1, time.Unix(0, 0))
	seen := make(map[uint32]bool)
	collisions := 0
	for i := 0; i < 10000; i++ {
		id, seq := v.idSeq(netmodel.Addr(i))
		k := uint32(id)<<16 | uint32(seq)
		if seen[k] {
			collisions++
		}
		seen[k] = true
	}
	if collisions > 2 {
		t.Errorf("%d id/seq collisions in 10k addresses", collisions)
	}
}
