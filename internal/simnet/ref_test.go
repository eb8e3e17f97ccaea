package simnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
)

// The oracle: the IPv4 wire as it was when a reply in flight was an encoded
// datagram in a fixed-size slot carved from doubling slabs, encoded at write
// time and copied out at read time. The bodies are kept verbatim, with the
// far end's reply rule and encoder copied beside them so that a change to
// the production ones cannot move the oracle too; only the names moved.

const refSlotSize = 64

type refPendingReply struct {
	at  int64
	seq uint64
	pkt []byte
}

func (a *refPendingReply) before(b *refPendingReply) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

type refReplyQueue struct {
	heap  []refPendingReply
	seq   uint64
	free  [][]byte
	slots int
}

func (q *refReplyQueue) len() int { return len(q.heap) }

func (q *refReplyQueue) buffer(n int) []byte {
	if n > refSlotSize {
		return make([]byte, 0, n)
	}
	if len(q.free) == 0 {
		grow := max(q.slots, 64)
		slab := make([]byte, grow*refSlotSize)
		for off := 0; off < len(slab); off += refSlotSize {
			q.free = append(q.free, slab[off:off:off+refSlotSize])
		}
		q.slots += grow
	}
	last := len(q.free) - 1
	b := q.free[last]
	q.free = q.free[:last]
	return b
}

func (q *refReplyQueue) release(pkt []byte) {
	if cap(pkt) == refSlotSize {
		q.free = append(q.free, pkt[:0])
	}
}

func (q *refReplyQueue) push(pkt []byte, at int64) {
	p := refPendingReply{at: at, seq: q.seq, pkt: pkt}
	q.seq++
	q.heap = append(q.heap, p)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !p.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = p
}

func (q *refReplyQueue) pop() refPendingReply {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	p := h[last]
	h[last] = refPendingReply{}
	h = h[:last]
	q.heap = h
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&p) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = p
	return top
}

// refTake is the virtual clock's delivery rule over the slab queue.
func (c *vclock) refTake(q *refReplyQueue, wait time.Duration) (refPendingReply, bool) {
	if q.len() == 0 {
		return refPendingReply{}, false
	}
	if at := q.heap[0].at; at > c.off {
		if wait <= 0 || at-c.off > int64(wait) {
			return refPendingReply{}, false
		}
		c.set(at)
	}
	return q.pop(), true
}

// refReply is probe.reply and refAppendReply probe.appendReply as they were.
func refReply(p *probe, kind ReplyKind, orig []byte) (m icmp.Message, ok bool) {
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

func refAppendReply(p *probe, buf []byte, m icmp.Message) []byte {
	return icmp.AppendMarshalIPv4(buf, icmp.IPv4Header{TTL: 55, Protocol: icmp.ProtoICMP, Src: p.h.Dst, Dst: p.h.Src}, m)
}

type refNetwork struct {
	vclock
	local netmodel.Addr
	resp  Responder
	queue refReplyQueue

	sent, delivered, dropped uint64
}

func newRef(local netmodel.Addr, resp Responder, start time.Time) *refNetwork {
	n := &refNetwork{local: local, resp: resp}
	n.init(start)
	return n
}

func (n *refNetwork) WritePacket(b []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.writeLocked(b)
}

func (n *refNetwork) WriteBatch(pkts [][]byte) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, b := range pkts {
		if err := n.writeLocked(b); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func (n *refNetwork) writeLocked(b []byte) error {
	var p probe
	if err := p.parse(b); err != nil {
		return err
	}
	n.sent++
	r := n.resp.Respond(p.h.Dst, n.now)
	m, ok := refReply(&p, r.Kind, b)
	if !ok {
		n.dropped++
		return nil
	}
	buf := n.queue.buffer(icmp.IPv4HeaderLen + icmp.HeaderLen + len(m.Payload))
	n.queue.push(refAppendReply(&p, buf, m), n.after(r.RTT))
	return nil
}

func (n *refNetwork) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.refTake(&n.queue, wait); ok {
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

func (n *refNetwork) ReadBatch(pkts [][]byte, ats []time.Time, wait time.Duration) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for count < len(pkts) {
		p, ok := n.refTake(&n.queue, wait)
		if !ok {
			break
		}
		wait = 0
		n.delivered++
		pkts[count] = append(pkts[count][:0], p.pkt...)
		ats[count] = n.timeAt(p.at)
		n.queue.release(p.pkt)
		count++
	}
	if wait > 0 {
		n.advance(wait)
	}
	return count, nil
}

func (n *refNetwork) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.queue.len()
}

func (n *refNetwork) Counters() (sent, delivered, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.delivered, n.dropped
}

// The differential check: one script drives a Network and the oracle side by
// side, and every result — write errors and counts, delivered bytes and
// instants, the clock, Pending and Counters — must be identical after every
// step. A script is a sequence of operations, each an opcode byte c whose
// c%5 names it and c/5 is its argument:
//
//	0, 1   WritePacket each / WriteBatch all of 1+arg%8 probes, each two
//	       bytes: a verdict (kind v%3 of silent, echo, unreachable; RTT
//	       diffRTTs[v/3%len(diffRTTs)]) and a shape (see diffProbe)
//	2      ReadPacket(diffWaits[arg%8])
//	3      ReadBatch(diffWaits[arg%8]) into 1+r%9 slots, nil or already
//	       holding bytes by r/9%2, r being the next byte
//	4      Sleep(diffWaits[arg%8])
const (
	opWrite = iota
	opWriteBatch
	opRead
	opReadBatch
	opSleep
)

var (
	// The first eight are the ones every older seed's bytes name; the rest
	// lie on the calendar queue's edges: one bucket, one lap ± 1 ns and two
	// laps.
	diffRTTs = []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 40 * time.Millisecond, -2 * time.Millisecond, time.Hour, math.MaxInt64, math.MinInt64,
		bucketWidth, lapWidth - 1, lapWidth, lapWidth + 1, 2 * lapWidth}
	diffWaits = []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond, time.Second, 2 * time.Hour, math.MaxInt64}
)

// diffProbe is the probe to dst of shape s: s%8 picks the form, s/8 (0–31)
// its size or the damage done.
func diffProbe(dst, src netmodel.Addr, s byte) []byte {
	arg := int(s / 8)
	h := icmp.IPv4Header{TTL: 64, ID: uint16(dst), Protocol: icmp.ProtoICMP, Src: src, Dst: dst}
	echo := func(payload int) []byte {
		pl := make([]byte, payload)
		for i := range pl {
			pl[i] = byte(i*7) ^ byte(dst)
		}
		return icmp.AppendMarshalIPv4(nil, h, icmp.Message{Type: icmp.TypeEchoRequest, ID: uint16(dst >> 3), Seq: uint16(dst), Payload: pl})
	}
	switch s % 8 {
	case 1: // oversize: longer than a record holds
		return echo(9 + 13*arg)
	case 2: // a payload shorter than the scanner's
		return echo(arg % 8)
	case 3: // one bit flipped
		b := echo(8)
		bit := arg * 37 % (8 * len(b))
		b[bit/8] ^= 1 << (bit % 8)
		return b
	case 4: // IHL 6: one word of options ahead of the ICMP message
		b := echo(8)
		out := append(append(append([]byte(nil), b[:icmp.IPv4HeaderLen]...), 1, 1, 1, 0), b[icmp.IPv4HeaderLen:]...)
		out[0] = 0x46
		binary.BigEndian.PutUint16(out[2:], uint16(len(out)))
		return fixIPv4Checksum(out, 24)
	case 5: // not an echo request: echoed by nobody, quoted by gateways
		return icmp.AppendMarshalIPv4(nil, h, icmp.Message{Type: icmp.TypeEchoReply, ID: 1, Seq: 2, Payload: make([]byte, arg%12)})
	case 6: // bytes past the total length
		return append(echo(arg%8), 0xde, 0xad, 0xbe, 0xef)
	case 7: // truncated
		b := echo(8)
		return b[:arg%len(b)]
	}
	return echo(8)
}

// diffWire is what the script sees of either wire.
type diffWire interface {
	scanner.Clock
	WritePacket([]byte) error
	WriteBatch([][]byte) (int, error)
	ReadPacket(time.Duration) ([]byte, time.Time, error)
	ReadBatch([][]byte, []time.Time, time.Duration) (int, error)
	Pending() int
	Counters() (sent, delivered, dropped uint64)
}

// runDiffScript runs script on both wires and returns the Network and how
// many writes were refused.
func runDiffScript(t *testing.T, script []byte) (n *Network, refused int) {
	t.Helper()
	start := time.Date(2022, 3, 2, 22, 0, 0, 123456789, time.FixedZone("EET", 2*3600))
	src := netmodel.MustParseAddr("198.51.100.1")
	verdicts := map[netmodel.Addr]Reply{}
	resp := ResponderFunc(func(dst netmodel.Addr, _ time.Time) Reply { return verdicts[dst] })
	n = New(src, resp, start)
	var got, want diffWire = n, newRef(src, resp, start)
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	next := netmodel.MustParseAddr("10.0.0.0")
	for step := 0; len(script) > 0 && step < 256; step++ {
		c := script[0]
		script = script[1:]
		arg := int(c / 5)
		wait := diffWaits[arg%len(diffWaits)]
		what := fmt.Sprintf("step %d (op %d, arg %d)", step, c%5, arg)
		switch c % 5 {
		case opWrite, opWriteBatch:
			k := 1 + arg%8
			if len(script) < 2*k {
				return n, refused
			}
			probes := make([][]byte, k)
			for i := range probes {
				v, s := script[2*i], script[2*i+1]
				verdicts[next] = Reply{Kind: ReplyKind(v % 3), RTT: diffRTTs[int(v/3)%len(diffRTTs)]}
				probes[i] = diffProbe(next, src, s)
				next++
			}
			script = script[2*k:]
			if c%5 == opWrite {
				for i, b := range probes {
					g, w := errText(got.WritePacket(b)), errText(want.WritePacket(b))
					if g != w {
						t.Fatalf("%s: WritePacket %d: error %q, oracle %q", what, i, g, w)
					}
					if g != "" {
						refused++
					}
				}
			} else {
				gn, gerr := got.WriteBatch(probes)
				wn, werr := want.WriteBatch(probes)
				if gn != wn || errText(gerr) != errText(werr) {
					t.Fatalf("%s: WriteBatch = %d, %v; oracle %d, %v", what, gn, gerr, wn, werr)
				}
				if gerr != nil {
					refused++
				}
			}
		case opRead:
			gp, gat, gerr := got.ReadPacket(wait)
			wp, wat, werr := want.ReadPacket(wait)
			if !bytes.Equal(gp, wp) || gat != wat || gerr != werr {
				t.Fatalf("%s: ReadPacket = %x at %v (%v); oracle %x at %v (%v)", what, gp, gat, gerr, wp, wat, werr)
			}
		case opReadBatch:
			if len(script) < 1 {
				return n, refused
			}
			r := script[0]
			script = script[1:]
			room := 1 + int(r%9)
			slots := func() [][]byte {
				s := make([][]byte, room)
				if r/9%2 == 1 {
					for i := range s {
						s[i] = append(make([]byte, 0, 64), 0xee, 0xee, 0xee)
					}
				}
				return s
			}
			gs, ws := slots(), slots()
			gats, wats := make([]time.Time, room), make([]time.Time, room)
			gk, gerr := got.ReadBatch(gs, gats, wait)
			wk, werr := want.ReadBatch(ws, wats, wait)
			if gk != wk || gerr != werr {
				t.Fatalf("%s: ReadBatch = %d, %v; oracle %d, %v", what, gk, gerr, wk, werr)
			}
			for i := range gs {
				if !bytes.Equal(gs[i], ws[i]) || gats[i] != wats[i] {
					t.Fatalf("%s: ReadBatch slot %d = %x at %v; oracle %x at %v", what, i, gs[i], gats[i], ws[i], wats[i])
				}
			}
		case opSleep:
			got.Sleep(wait)
			want.Sleep(wait)
		}
		if g, w := got.Now(), want.Now(); g != w {
			t.Fatalf("%s: clock %v, oracle %v", what, g, w)
		}
		if g, w := got.Pending(), want.Pending(); g != w {
			t.Fatalf("%s: Pending %d, oracle %d", what, g, w)
		}
		gs, gd, gx := got.Counters()
		ws, wd, wx := want.Counters()
		if gs != ws || gd != wd || gx != wx {
			t.Fatalf("%s: Counters %d/%d/%d, oracle %d/%d/%d", what, gs, gd, gx, ws, wd, wx)
		}
	}
	return n, refused
}

// diffOp and diffVerdict spell out seed scripts.
func diffOp(op, arg int, rest ...byte) []byte  { return append([]byte{byte(op + 5*arg)}, rest...) }
func diffVerdict(kind ReplyKind, rtt int) byte { return byte(int(kind) + 3*rtt) }

// diffSeeds is TestNetworkMatchesRef's table and FuzzNetworkMatchesRef's
// seed corpus.
func diffSeeds() map[string][]byte {
	echo, unreach, silent := func(rtt int) byte { return diffVerdict(EchoReply, rtt) },
		func(rtt int) byte { return diffVerdict(HostUnreachable, rtt) },
		func(rtt int) byte { return diffVerdict(NoReply, rtt) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const scanner, oversize, short, flipped, options, notEcho, trailing, truncated = 0, 1, 2, 3, 4, 5, 6, 7
	return map[string][]byte{
		"kinds through WritePacket and WriteBatch": cat(
			diffOp(opWrite, 2, echo(1), scanner, unreach(1), scanner, silent(1), scanner),
			diffOp(opWriteBatch, 2, unreach(2), scanner, echo(2), scanner, silent(0), scanner),
			diffOp(opRead, 5), diffOp(opReadBatch, 5, 8), diffOp(opRead, 5), diffOp(opRead, 5)),
		"equal delivery times pop in write order": cat(
			diffOp(opWriteBatch, 7, echo(1), scanner, unreach(1), scanner, echo(1), short, echo(1), 8*3+short,
				unreach(1), notEcho, echo(0), scanner, echo(1), 8*5+scanner, unreach(1), oversize),
			diffOp(opWrite, 3, echo(1), scanner, echo(1), oversize, unreach(1), options, echo(1), trailing),
			diffOp(opReadBatch, 5, 2), diffOp(opReadBatch, 0, 8+9), diffOp(opRead, 0), diffOp(opReadBatch, 5, 8)),
		"saturating and negative RTTs": cat(
			diffOp(opSleep, 6),
			diffOp(opWriteBatch, 3, echo(6), scanner, echo(7), scanner, unreach(5), scanner, echo(4), scanner),
			diffOp(opRead, 0), diffOp(opRead, 6), diffOp(opRead, 7), diffOp(opReadBatch, 7, 8),
			diffOp(opSleep, 7), diffOp(opWrite, 1, echo(1), scanner, echo(6), scanner),
			diffOp(opRead, 7), diffOp(opReadBatch, 7, 8)),
		"oversize, short and trailing probes": cat(
			diffOp(opWrite, 5, echo(1), oversize, unreach(2), 8*31+oversize, echo(1), 8*4+short,
				unreach(1), 8*7+short, echo(3), trailing, unreach(3), 8*9+trailing),
			diffOp(opWriteBatch, 3, echo(2), options, unreach(2), options, echo(1), notEcho, unreach(1), 8*11+notEcho),
			diffOp(opReadBatch, 5, 4), diffOp(opRead, 5), diffOp(opReadBatch, 5, 9+8), diffOp(opRead, 7)),
		"malformed probes fail alike": cat(
			diffOp(opWrite, 3, echo(1), flipped, echo(1), 8*9+flipped, echo(1), truncated, echo(1), 8*27+truncated),
			diffOp(opWriteBatch, 3, echo(1), scanner, echo(1), 8*2+flipped, echo(1), scanner, echo(1), scanner),
			diffOp(opWriteBatch, 1, unreach(1), 8*3+truncated, echo(1), scanner),
			diffOp(opReadBatch, 5, 8)),
		"lap-edge RTTs under equal delivery times": cat(
			diffOp(opWriteBatch, 7, echo(10), scanner, echo(0), scanner, echo(8), scanner, unreach(10), scanner,
				echo(9), scanner, echo(11), oversize, echo(12), scanner, echo(0), short),
			diffOp(opRead, 0), diffOp(opRead, 3),
			diffOp(opWrite, 4, echo(4), scanner, unreach(10), scanner, echo(9), scanner, echo(0), scanner, echo(4), short),
			diffOp(opReadBatch, 0, 8), diffOp(opReadBatch, 4, 2), diffOp(opRead, 4),
			diffOp(opWriteBatch, 3, echo(12), scanner, echo(11), scanner, echo(4), scanner, echo(12), short),
			diffOp(opReadBatch, 5, 8), diffOp(opRead, 5), diffOp(opReadBatch, 5, 8), diffOp(opRead, 7)),
		"interleaved reads and waits": cat(
			diffOp(opWriteBatch, 7, echo(1), scanner, echo(2), scanner, echo(3), scanner, unreach(1), scanner,
				echo(4), scanner, unreach(2), oversize, echo(0), scanner, echo(5), scanner),
			diffOp(opRead, 0), diffOp(opReadBatch, 1, 1), diffOp(opSleep, 2), diffOp(opRead, 1),
			diffOp(opWrite, 1, echo(1), scanner, unreach(0), short),
			diffOp(opReadBatch, 2, 3+9), diffOp(opRead, 3), diffOp(opSleep, 4), diffOp(opReadBatch, 0, 8),
			diffOp(opRead, 4), diffOp(opReadBatch, 6, 8), diffOp(opRead, 6), diffOp(opRead, 7)),
	}
}

// TestNetworkMatchesRef: the record wire and the slab wire it replaced agree,
// step by step, on every seed script; and each seed reaches what it is named
// for: replies delivered and dropped, probes kept whole beside the records,
// writes refused.
func TestNetworkMatchesRef(t *testing.T) {
	for name, script := range diffSeeds() {
		t.Run(name, func(t *testing.T) {
			n, refused := runDiffScript(t, script)
			_, delivered, dropped := n.Counters()
			if delivered == 0 {
				t.Error("no reply delivered")
			}
			if strings.Contains(name, "kinds") && dropped == 0 {
				t.Error("no silent probe")
			}
			if strings.Contains(name, "oversize") && n.long == nil {
				t.Error("no probe took the side path")
			}
			if strings.Contains(name, "malformed") && refused < 3 {
				t.Errorf("%d writes refused", refused)
			}
		})
	}
}

// FuzzNetworkMatchesRef lets the fuzzer write the script.
func FuzzNetworkMatchesRef(f *testing.F) {
	for _, script := range diffSeeds() {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { runDiffScript(t, script) })
}
