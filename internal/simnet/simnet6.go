package simnet

import (
	"fmt"
	"net/netip"
	"time"

	"countrymon/internal/icmp6"
	"countrymon/internal/scanner"
)

// Reply6 is a v6 responder's verdict.
type Reply6 struct {
	Kind ReplyKind
	RTT  time.Duration
	// Router, for HostUnreachable-style error replies, is the device that
	// emits the ICMPv6 error (revealed per §6's error-message harvesting).
	Router netip.Addr
}

// Responder6 supplies IPv6 ground truth.
type Responder6 func(dst netip.Addr, at time.Time) Reply6

// Network6 is the IPv6 simulated wire: a virtual-time transport for
// internal/scanner6, mirroring Network for IPv4 on the same virtual clock.
type Network6 struct {
	vclock
	local netip.Addr
	resp  Responder6
	queue replyQueue[[]byte]
}

// New6 creates an IPv6 network with its virtual clock at start.
func New6(local netip.Addr, resp Responder6, start time.Time) *Network6 {
	n := &Network6{local: local, resp: resp}
	n.init(start)
	return n
}

// LocalAddr implements scanner6.Transport.
func (n *Network6) LocalAddr() netip.Addr { return n.local }

// WritePacket implements scanner6.Transport. b is not retained: every reply
// is a fresh encoding, and the error path's quote is copied by
// icmp6.TimeExceeded.
func (n *Network6) WritePacket(b []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, body, err := icmp6.ParseIPv6(b)
	if err != nil {
		return fmt.Errorf("simnet6: outgoing packet: %w", err)
	}
	if h.NextHeader != icmp6.NextHeaderICMPv6 {
		return fmt.Errorf("simnet6: unsupported next header %d", h.NextHeader)
	}
	req, err := icmp6.Parse(h.Src, h.Dst, body)
	if err != nil {
		return fmt.Errorf("simnet6: outgoing ICMPv6: %w", err)
	}
	r := n.resp(h.Dst, n.now)
	switch r.Kind {
	case EchoReply:
		if req.Type != icmp6.TypeEchoRequest {
			return nil
		}
		reply := icmp6.EchoReplyFor(h.Src, h.Dst, req)
		dg, err := icmp6.MarshalIPv6(icmp6.IPv6Header{
			NextHeader: icmp6.NextHeaderICMPv6, HopLimit: 55, Src: h.Dst, Dst: h.Src,
		}, reply)
		if err != nil {
			return err
		}
		n.queue.push(dg, n.after(r.RTT))
	case HostUnreachable:
		router := r.Router
		if !router.IsValid() {
			router = h.Dst
		}
		msg := icmp6.TimeExceeded(router, h.Src, b)
		dg, err := icmp6.MarshalIPv6(icmp6.IPv6Header{
			NextHeader: icmp6.NextHeaderICMPv6, HopLimit: 55, Src: router, Dst: h.Src,
		}, msg)
		if err != nil {
			return err
		}
		n.queue.push(dg, n.after(r.RTT))
	}
	return nil
}

// ReadPacket implements scanner6.Transport with the same virtual-time
// semantics as Network.ReadPacket.
func (n *Network6) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if due(&n.vclock, &n.queue, wait) {
		p := n.queue.heap[0]
		n.queue.pop()
		return p.r, n.timeAt(p.at), nil
	}
	if wait > 0 {
		n.advance(wait)
	}
	return nil, time.Time{}, scanner.ErrTimeout
}
