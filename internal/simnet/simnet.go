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
	"encoding/binary"
	"fmt"
	"net"
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
	queue replyQueue[record]
	long  map[int32][]byte // probes longer than recordLen, by queue slot

	closed bool // by Close: every write and read fails

	// Stats
	sent, delivered, dropped uint64
}

// New creates a network whose virtual clock starts at `start`.
func New(local netmodel.Addr, resp Responder, start time.Time) *Network {
	n := &Network{local: local, resp: resp}
	n.init(start)
	return n
}

// Rearm implements scanner.Rearmer: the network becomes what New(local,
// resp, at) would build, except that its reply queue keeps the slab it has
// grown, so a vantage's next scan starts on it. The replies still in flight
// are dropped and the counters restart at zero. A closed network does not
// re-arm.
func (n *Network) Rearm(at time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.init(at)
	n.queue.reset()
	clear(n.long)
	n.sent, n.delivered, n.dropped = 0, 0, 0
	return true
}

// Close implements io.Closer: every write or read after it returns
// net.ErrClosed, so the replies still in flight are never delivered.
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	return nil
}

// LocalAddr implements scanner.Transport.
func (n *Network) LocalAddr() netmodel.Addr { return n.local }

// WritePacket implements scanner.Transport: it parses the outgoing datagram,
// consults the responder, and enqueues any reply for delivery RTT later.
func (n *Network) WritePacket(b []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return net.ErrClosed
	}
	return n.writeLocked(b)
}

// WriteBatch implements scanner.BatchTransport, amortizing one lock
// acquisition over the whole batch. Packets are processed in order with the
// clock held still, so replies enqueue exactly as they would under repeated
// WritePacket calls.
func (n *Network) WriteBatch(pkts [][]byte) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return 0, net.ErrClosed
	}
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
	if _, ok := p.reply(r.Kind, b); !ok {
		n.dropped++
		return nil
	}
	// The probe is copied, not kept: the caller reuses b.
	rec := record{kind: r.Kind}
	if len(b) <= recordLen {
		rec.n = uint8(copy(rec.probe[:], b))
	}
	slot := n.queue.push(rec, n.after(r.RTT))
	if rec.n == 0 {
		if n.long == nil {
			n.long = make(map[int32][]byte)
		}
		n.long[slot] = append([]byte(nil), b...)
	}
	return nil
}

// recordLen is how much of a probe a reply in flight holds inline: all of a
// scanner probe, an echo request with an 8-byte payload, and so all that its
// echo reply (addresses, ID, sequence, payload) or host-unreachable quote
// (the IP header plus 8 bytes) is built from.
const recordLen = icmp.IPv4HeaderLen + icmp.HeaderLen + 8

// record is an IPv4 reply in flight: the far end's verdict and the probe it
// answers. The datagram is encoded only when the reply is delivered, straight
// into the reader's buffer, so a reply that is never read costs the record
// alone. A probe longer than recordLen is kept whole in Network.long under
// the reply's queue slot instead, and n is 0.
type record struct {
	kind  ReplyKind
	n     uint8 // bytes of probe in use
	probe [recordLen]byte
}

// appendDelivery appends to buf the datagram of the reply in slot i, read in
// place at the top of the queue before it is popped. n.mu must be held.
func (n *Network) appendDelivery(buf []byte, i int32) []byte {
	p := &n.queue.slab[i]
	b := p.r.probe[:p.r.n]
	if p.r.n == 0 {
		b = n.long[i]
		delete(n.long, i)
	}
	var pr probe
	pr.reread(b)
	m, _ := pr.reply(p.r.kind, b) // ok: the reply was queued only if so
	return pr.appendReply(buf, m)
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

// reread decodes into p the fields parse decoded from b, which it accepted
// when b was written, without checking b again: the far end re-reads a
// reply's probe when the reply is delivered.
func (p *probe) reread(b []byte) {
	ihl := int(b[0]&0x0f) * 4
	p.h.Src = netmodel.Addr(binary.BigEndian.Uint32(b[12:]))
	p.h.Dst = netmodel.Addr(binary.BigEndian.Uint32(b[16:]))
	body := b[ihl:binary.BigEndian.Uint16(b[2:])]
	p.req = icmp.Message{Type: icmp.Type(body[0]), Code: body[1], ID: binary.BigEndian.Uint16(body[4:]),
		Seq: binary.BigEndian.Uint16(body[6:]), Payload: body[icmp.HeaderLen:]}
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
	if n.closed {
		return nil, time.Time{}, net.ErrClosed
	}
	if due(&n.vclock, &n.queue, wait) {
		n.delivered++
		i := n.queue.top()
		pkt, at := n.appendDelivery(nil, i), n.timeAt(n.queue.slab[i].at)
		n.queue.pop()
		return pkt, at, nil
	}
	if wait > 0 {
		n.advance(wait)
	}
	return nil, time.Time{}, scanner.ErrTimeout
}

// ReadBatch implements scanner.BatchTransport: it delivers every reply due
// at (or, for the first packet, within `wait` of) the current virtual time
// under a single lock acquisition, encoding each into the caller's reusable
// slot. Delivery order and clock movement are identical to repeated
// ReadPacket calls, so batched reads stay deterministic.
func (n *Network) ReadBatch(pkts [][]byte, ats []time.Time, wait time.Duration) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return 0, net.ErrClosed
	}
	count := 0
	for count < len(pkts) {
		if !due(&n.vclock, &n.queue, wait) {
			break
		}
		wait = 0 // only the first packet is waited for
		n.delivered++
		i := n.queue.top()
		pkts[count] = n.appendDelivery(pkts[count][:0], i)
		ats[count] = n.timeAt(n.queue.slab[i].at)
		n.queue.pop()
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
