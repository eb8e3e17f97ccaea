// Package simnet provides the packet-level simulated "wire" that stands in
// for the Internet path between the vantage point and Ukraine. It implements
// scanner.Transport and scanner.Clock over a virtual clock, so scans are
// deterministic and run at CPU speed rather than wire speed, while the
// scanner still encodes, transmits, receives, validates and parses real
// ICMP/IPv4 packets.
//
// Ground truth is supplied by a Responder (normally internal/sim), which
// decides per address and per (virtual) time whether an echo reply, an ICMP
// error, or silence comes back, and with what round-trip time.
package simnet

import (
	"fmt"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
)

// ReplyKind says how a probed address reacts.
type ReplyKind uint8

const (
	// NoReply means the probe is dropped silently.
	NoReply ReplyKind = iota
	// EchoReply means the address answers the echo request.
	EchoReply
	// HostUnreachable means a gateway answers with ICMP dest-unreachable.
	HostUnreachable
)

// Reply is a Responder's verdict for one probe.
type Reply struct {
	Kind ReplyKind
	RTT  time.Duration
}

// Responder supplies ground truth for probes.
type Responder interface {
	Respond(dst netmodel.Addr, at time.Time) Reply
}

// ResponderFunc adapts a function to the Responder interface.
type ResponderFunc func(dst netmodel.Addr, at time.Time) Reply

// Respond implements Responder.
func (f ResponderFunc) Respond(dst netmodel.Addr, at time.Time) Reply { return f(dst, at) }

// Network is a virtual-time transport. It is safe for concurrent use,
// though the scanner drives it from one goroutine. Its Now and Sleep
// (scanner.Clock) are the embedded virtual clock's.
type Network struct {
	vclock
	local netmodel.Addr
	resp  Responder
	queue replyQueue

	// Stats
	sent, delivered, dropped uint64
}

// New creates a network whose virtual clock starts at `start`.
func New(local netmodel.Addr, resp Responder, start time.Time) *Network {
	n := &Network{local: local, resp: resp}
	n.init(start)
	return n
}

// LocalAddr implements scanner.Transport.
func (n *Network) LocalAddr() netmodel.Addr { return n.local }

// WritePacket implements scanner.Transport: it parses the outgoing datagram,
// consults the responder, and enqueues any reply for delivery RTT later.
func (n *Network) WritePacket(b []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.writeLocked(b)
}

// WriteBatch implements scanner.BatchTransport, amortizing one lock
// acquisition over the whole batch. Packets are processed in order with the
// clock held still, so replies enqueue exactly as they would under repeated
// WritePacket calls.
func (n *Network) WriteBatch(pkts [][]byte) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, b := range pkts {
		if err := n.writeLocked(b); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func (n *Network) writeLocked(b []byte) error {
	var p probe
	if err := p.parse(b); err != nil {
		return err
	}
	n.sent++
	r := n.resp.Respond(p.h.Dst, n.now)
	m, ok := p.reply(r.Kind, b)
	if !ok {
		n.dropped++
		return nil
	}
	// Encoded straight into a queue slot; the reply's payload aliases b,
	// which the caller reuses, and the encode copies it.
	buf := n.queue.buffer(icmp.IPv4HeaderLen + icmp.HeaderLen + len(m.Payload))
	n.queue.push(p.appendReply(buf, m), n.after(r.RTT))
	return nil
}

// probe is an outgoing datagram as the far end decoded it. The request's
// payload aliases the datagram.
type probe struct {
	h   icmp.IPv4Header
	req icmp.Message
}

// parse checks an outgoing datagram the way the far end would — IPv4 header
// checksum and length, protocol, ICMP checksum — decoding it into p in place.
func (p *probe) parse(b []byte) error {
	body, err := p.h.Parse(b)
	if err != nil {
		return fmt.Errorf("simnet: outgoing packet: %w", err)
	}
	if p.h.Protocol != icmp.ProtoICMP {
		return fmt.Errorf("simnet: unsupported protocol %d", p.h.Protocol)
	}
	if err := p.req.Parse(body); err != nil {
		return fmt.Errorf("simnet: outgoing ICMP: %w", err)
	}
	return nil
}

// reply is the far end's answer to p, carried by the datagram orig: the ICMP
// message to send back, or ok == false for silence. Only echo requests are
// echoed; a host unreachable quotes orig's IP header plus 8 bytes (RFC 792).
// The message's payload aliases orig.
func (p *probe) reply(kind ReplyKind, orig []byte) (m icmp.Message, ok bool) {
	switch kind {
	case EchoReply:
		if p.req.Type != icmp.TypeEchoRequest {
			break
		}
		return icmp.Message{Type: icmp.TypeEchoReply, ID: p.req.ID, Seq: p.req.Seq, Payload: p.req.Payload}, true
	case HostUnreachable:
		quote := orig[:min(len(orig), icmp.IPv4HeaderLen+8)]
		return icmp.Message{Type: icmp.TypeDestUnreachable, Code: icmp.CodeHostUnreachable, Payload: quote}, true
	}
	return icmp.Message{}, false
}

// appendReply appends the datagram carrying m from the probed address back
// to the prober: the one reply encoder of Network and WireServer.
func (p *probe) appendReply(buf []byte, m icmp.Message) []byte {
	return icmp.AppendMarshalIPv4(buf, icmp.IPv4Header{TTL: 55, Protocol: icmp.ProtoICMP, Src: p.h.Dst, Dst: p.h.Src}, m)
}

// ReadPacket implements scanner.Transport. With wait == 0 it returns only
// packets already due at the current virtual time; with wait > 0 it advances
// the virtual clock to the next delivery within the window, or by the whole
// window if nothing is due in it. The caller owns the returned bytes.
func (n *Network) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.take(&n.queue, wait); ok {
		n.delivered++
		pkt := append([]byte(nil), p.pkt...)
		n.queue.release(p.pkt)
		return pkt, n.timeAt(p.at), nil
	}
	if wait > 0 {
		n.advance(wait)
	}
	return nil, time.Time{}, scanner.ErrTimeout
}

// ReadBatch implements scanner.BatchTransport: it delivers every reply due
// at (or, for the first packet, within `wait` of) the current virtual time
// under a single lock acquisition, copying each into the caller's reusable
// slot. Delivery order and clock movement are identical to repeated
// ReadPacket calls, so batched reads stay deterministic.
func (n *Network) ReadBatch(pkts [][]byte, ats []time.Time, wait time.Duration) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for count < len(pkts) {
		p, ok := n.take(&n.queue, wait)
		if !ok {
			break
		}
		wait = 0 // only the first packet is waited for
		n.delivered++
		pkts[count] = append(pkts[count][:0], p.pkt...)
		ats[count] = n.timeAt(p.at)
		n.queue.release(p.pkt)
		count++
	}
	if wait > 0 {
		// Nothing was due within the window: consume it.
		n.advance(wait)
	}
	return count, nil
}

// Pending returns how many replies are queued but not yet delivered.
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.queue.len()
}

// Counters returns (sent, delivered, dropped) packet counts.
func (n *Network) Counters() (sent, delivered, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.delivered, n.dropped
}
