package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
)

// The far end's check list, spelled out check by check as the reference the
// wire is held to. It returns the error text WritePacket must produce, or ""
// when the datagram is accepted. Nothing in the rejection table draws a
// reply: the one accepted case is not an echo request.
func wantFarEnd(b []byte) string {
	const ip, ic = "simnet: outgoing packet: ", "simnet: outgoing ICMP: "
	if len(b) < icmp.IPv4HeaderLen {
		return ip + "icmp: short packet"
	}
	if b[0]>>4 != 4 {
		return ip + "icmp: not an IPv4 packet"
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < icmp.IPv4HeaderLen || len(b) < ihl {
		return ip + fmt.Sprintf("icmp: short packet: IHL %d", ihl)
	}
	if icmp.Checksum(b[:ihl]) != 0 {
		return ip + "icmp: bad checksum"
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < ihl || total > len(b) {
		return ip + fmt.Sprintf("icmp: short packet: total length %d", total)
	}
	if b[9] != icmp.ProtoICMP {
		return fmt.Sprintf("simnet: unsupported protocol %d", b[9])
	}
	body := b[ihl:total]
	if len(body) < icmp.HeaderLen {
		return ic + "icmp: short packet"
	}
	if icmp.Checksum(body) != 0 {
		return ic + "icmp: bad checksum"
	}
	return ""
}

// fixIPv4Checksum recomputes the header checksum after a field was edited,
// so the case reaches the check it is about.
func fixIPv4Checksum(b []byte, ihl int) []byte {
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint16(b[10:], icmp.Checksum(b[:ihl]))
	return b
}

type farEndCase struct {
	name string
	pkt  []byte
}

// farEndCases mangles one valid probe every way a packet path bug could:
// each single-bit flip, truncation to every length, and the header edits
// with the checksum fixed up behind them.
func farEndCases(src netmodel.Addr) []farEndCase {
	good := icmp.AppendMarshalIPv4(nil,
		icmp.IPv4Header{TTL: 64, ID: 0x1234, Protocol: icmp.ProtoICMP, Src: src, Dst: netmodel.MustParseAddr("10.0.0.1")},
		icmp.Message{Type: icmp.TypeEchoRequest, ID: 0xbeef, Seq: 7, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	var cases []farEndCase
	for bit := 0; bit < 8*len(good); bit++ {
		region := "IP header"
		if bit/8 >= icmp.IPv4HeaderLen+icmp.HeaderLen {
			region = "payload"
		} else if bit/8 >= icmp.IPv4HeaderLen {
			region = "ICMP header"
		}
		cases = append(cases, farEndCase{
			fmt.Sprintf("%s: byte %d bit %d flipped", region, bit/8, bit%8),
			edit(func(b []byte) { b[bit/8] ^= 1 << (bit % 8) }),
		})
	}
	for n := 0; n < len(good); n++ {
		cases = append(cases, farEndCase{fmt.Sprintf("truncated to %d bytes", n), good[:n:n]})
	}
	withOptions := func(b []byte) []byte { // IHL 6: one word of options
		out := append([]byte(nil), b[:icmp.IPv4HeaderLen]...)
		out = append(out, 1, 1, 1, 0) // NOP, NOP, NOP, end of list
		out = append(out, b[icmp.IPv4HeaderLen:]...)
		out[0] = 0x46
		binary.BigEndian.PutUint16(out[2:], uint16(len(out)))
		return fixIPv4Checksum(out, 24)
	}
	cases = append(cases,
		farEndCase{"version 6", edit(func(b []byte) { b[0] = 0x65; fixIPv4Checksum(b, 20) })},
		farEndCase{"IHL 4", edit(func(b []byte) { b[0] = 0x44; fixIPv4Checksum(b, 16) })},
		farEndCase{"IHL 6 over a 5-word header", edit(func(b []byte) { b[0] = 0x46; fixIPv4Checksum(b, 24) })},
		farEndCase{"IHL 15", edit(func(b []byte) { b[0] = 0x4f })},
		farEndCase{"protocol 17", edit(func(b []byte) { b[9] = 17; fixIPv4Checksum(b, 20) })},
		farEndCase{"total length beyond the packet", edit(func(b []byte) {
			binary.BigEndian.PutUint16(b[2:], uint16(len(b)+1))
			fixIPv4Checksum(b, 20)
		})},
		farEndCase{"total length below the header", edit(func(b []byte) {
			binary.BigEndian.PutUint16(b[2:], 19)
			fixIPv4Checksum(b, 20)
		})},
		farEndCase{"total length cuts the ICMP header", edit(func(b []byte) {
			binary.BigEndian.PutUint16(b[2:], 27)
			fixIPv4Checksum(b, 20)
		})},
		farEndCase{"total length cuts the payload", edit(func(b []byte) {
			binary.BigEndian.PutUint16(b[2:], 32)
			fixIPv4Checksum(b, 20)
		})},
		farEndCase{"IHL 6 echo reply with options: accepted, not echoed", withOptions(
			icmp.AppendMarshalIPv4(nil, icmp.IPv4Header{TTL: 64, Protocol: icmp.ProtoICMP, Src: src, Dst: netmodel.MustParseAddr("10.0.0.1")},
				icmp.Message{Type: icmp.TypeEchoReply, ID: 1, Seq: 2, Payload: make([]byte, 8)}))},
		farEndCase{"echo reply: accepted, not echoed", icmp.AppendMarshalIPv4(nil,
			icmp.IPv4Header{TTL: 64, Protocol: icmp.ProtoICMP, Src: src, Dst: netmodel.MustParseAddr("10.0.0.1")},
			icmp.Message{Type: icmp.TypeEchoReply, ID: 1, Seq: 2, Payload: make([]byte, 8)})},
		farEndCase{"dest unreachable: accepted, not echoed", icmp.AppendMarshalIPv4(nil,
			icmp.IPv4Header{TTL: 64, Protocol: icmp.ProtoICMP, Src: src, Dst: netmodel.MustParseAddr("10.0.0.1")},
			icmp.Message{Type: icmp.TypeDestUnreachable, Code: icmp.CodeHostUnreachable, Payload: good[:28]})},
	)
	return cases
}

// TestFarEndRejectionTable: every mangled datagram is refused with the error
// of the first check it fails — or, when it is a well-formed packet that is
// not an echo request, taken in silence — on WritePacket and WriteBatch
// alike, and none of them leaves a reply behind.
func TestFarEndRejectionTable(t *testing.T) {
	src := netmodel.MustParseAddr("198.51.100.1")
	good := probeFor(netmodel.MustParseAddr("10.0.0.2"), src)
	if want := wantFarEnd(good); want != "" {
		t.Fatalf("reference rejects the valid probe: %s", want)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	accepted := 0
	for _, c := range farEndCases(src) {
		want := wantFarEnd(c.pkt)
		if want == "" {
			accepted++
		}

		n := New(src, echoAll(time.Millisecond), time.Unix(0, 0))
		if got := errText(n.WritePacket(c.pkt)); got != want {
			t.Errorf("%s: WritePacket error %q, want %q", c.name, got, want)
		}
		if n.Pending() != 0 {
			t.Errorf("%s: WritePacket left %d replies pending", c.name, n.Pending())
		}

		// Between two valid probes: the batch stops at the refused packet
		// and reports its error; a packet taken in silence does not stop it.
		n = New(src, echoAll(time.Millisecond), time.Unix(0, 0))
		sent, err := n.WriteBatch([][]byte{good, c.pkt, good})
		wantSent, wantPending := 1, 1
		if want == "" {
			wantSent, wantPending = 3, 2
		}
		if got := errText(err); sent != wantSent || got != want {
			t.Errorf("%s: WriteBatch = %d, %q; want %d, %q", c.name, sent, got, wantSent, want)
		}
		if n.Pending() != wantPending {
			t.Errorf("%s: WriteBatch left %d replies pending, want %d", c.name, n.Pending(), wantPending)
		}
		if _, _, dropped := n.Counters(); want == "" && dropped != 1 {
			t.Errorf("%s: dropped = %d, want the silent packet counted", c.name, dropped)
		}
	}
	if accepted != 3 {
		t.Errorf("%d cases were accepted in silence, want the 3 non-request messages", accepted)
	}

	// The errors still wrap the codec's sentinels.
	n := New(src, echoAll(0), time.Unix(0, 0))
	if err := n.WritePacket(good[:10]); !errors.Is(err, icmp.ErrShortPacket) {
		t.Errorf("short packet: %v does not wrap ErrShortPacket", err)
	}
	bad := append([]byte(nil), good...)
	bad[30] ^= 0x10
	if err := n.WritePacket(bad); !errors.Is(err, icmp.ErrBadChecksum) {
		t.Errorf("corrupt payload: %v does not wrap ErrBadChecksum", err)
	}
}

// TestHostUnreachableQuotesProbe: the error reply quotes the probe's IP
// header plus eight bytes (RFC 792), whatever the probe's type.
func TestHostUnreachableQuotesProbe(t *testing.T) {
	src := netmodel.MustParseAddr("198.51.100.1")
	dst := netmodel.MustParseAddr("10.0.0.1")
	n := New(src, ResponderFunc(func(netmodel.Addr, time.Time) Reply {
		return Reply{Kind: HostUnreachable, RTT: time.Millisecond}
	}), time.Unix(0, 0))
	probe := probeFor(dst, src)
	if err := n.WritePacket(probe); err != nil {
		t.Fatal(err)
	}
	pkt, _, err := n.ReadPacket(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h, body, err := icmp.ParseIPv4(pkt)
	if err != nil || h.Src != dst || h.Dst != src || h.TTL != 55 {
		t.Fatalf("reply header %+v: %v", h, err)
	}
	m, err := icmp.Parse(body)
	if err != nil || m.Type != icmp.TypeDestUnreachable || m.Code != icmp.CodeHostUnreachable {
		t.Fatalf("reply message %+v: %v", m, err)
	}
	if string(m.Payload) != string(probe[:icmp.IPv4HeaderLen+8]) {
		t.Errorf("quote %x, want %x", m.Payload, probe[:icmp.IPv4HeaderLen+8])
	}
}

// TestRereadMatchesParse: what a reply re-reads of its probe at delivery is
// what parse decoded when the probe was written, for every datagram parse
// accepts among the far end's cases and the differential script's shapes.
func TestRereadMatchesParse(t *testing.T) {
	src := netmodel.MustParseAddr("198.51.100.1")
	pkts := [][]byte{probeFor(netmodel.MustParseAddr("10.0.0.2"), src)}
	for _, c := range farEndCases(src) {
		pkts = append(pkts, c.pkt)
	}
	for s := 0; s < 256; s++ {
		pkts = append(pkts, diffProbe(netmodel.MustParseAddr("10.0.0.3")+netmodel.Addr(s), src, byte(s)))
	}
	accepted := 0
	for i, b := range pkts {
		var parsed, reread probe
		if parsed.parse(b) != nil {
			continue
		}
		accepted++
		reread.reread(b)
		if reread.h.Src != parsed.h.Src || reread.h.Dst != parsed.h.Dst || reread.req.Type != parsed.req.Type ||
			reread.req.Code != parsed.req.Code || reread.req.ID != parsed.req.ID || reread.req.Seq != parsed.req.Seq ||
			string(reread.req.Payload) != string(parsed.req.Payload) {
			t.Errorf("datagram %d %x: reread %+v, parse %+v", i, b, reread, parsed)
		}
	}
	if accepted < 150 {
		t.Errorf("only %d datagrams accepted", accepted)
	}
}
