package simnet

import (
	"errors"
	"net"
	"os"
	"syscall"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
)

// UDP tunnel transport: the same IPv4+ICMP datagrams the scanner would put
// on a raw socket are carried as UDP payloads to a WireServer, which plays
// the role of the Internet path and the probed hosts. This exercises real
// sockets, real concurrency and real timing without requiring privileges,
// and is used by integration tests and the fbscan tool's udp mode.

// WireServer terminates the UDP tunnel and answers probes per its Responder.
type WireServer struct {
	conn *net.UDPConn
	resp Responder
	done chan struct{}
}

// NewWireServer starts a server on addr (e.g. "127.0.0.1:0").
func NewWireServer(addr string, resp Responder) (*WireServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	s := &WireServer{conn: conn, resp: resp, done: make(chan struct{})}
	go s.serve()
	return s, nil
}

// Addr returns the server's UDP address.
func (s *WireServer) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Close shuts the server down.
func (s *WireServer) Close() error {
	close(s.done)
	return s.conn.Close()
}

func (s *WireServer) serve() {
	buf := make([]byte, 64*1024)
	for {
		n, peer, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		go s.handle(pkt, peer)
	}
}

func (s *WireServer) handle(pkt []byte, peer *net.UDPAddr) {
	var p probe
	if p.parse(pkt) != nil {
		return
	}
	r := s.resp.Respond(p.h.Dst, time.Now())
	m, ok := p.reply(r.Kind, pkt)
	if !ok {
		return
	}
	reply := p.appendReply(nil, m)
	if r.RTT > 0 {
		time.Sleep(r.RTT)
	}
	s.conn.WriteToUDP(reply, peer)
}

// UDPTransport implements scanner.Transport over the tunnel.
type UDPTransport struct {
	conn  *net.UDPConn
	local netmodel.Addr
	rbuf  []byte // ReadBatch scratch; reads come from one goroutine
}

// DialUDP connects a transport to a WireServer.
func DialUDP(server *net.UDPAddr, local netmodel.Addr) (*UDPTransport, error) {
	conn, err := net.DialUDP("udp", nil, server)
	if err != nil {
		return nil, err
	}
	return &UDPTransport{conn: conn, local: local}, nil
}

// LocalAddr implements scanner.Transport.
func (t *UDPTransport) LocalAddr() netmodel.Addr { return t.local }

// WritePacket implements scanner.Transport.
func (t *UDPTransport) WritePacket(b []byte) error {
	_, err := t.conn.Write(b)
	return classifyErr(err)
}

// ReadPacket implements scanner.Transport.
func (t *UDPTransport) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	if wait <= 0 {
		wait = time.Millisecond
	}
	if err := t.conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		return nil, time.Time{}, err
	}
	buf := make([]byte, 64*1024)
	n, err := t.conn.Read(buf)
	at := time.Now()
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, time.Time{}, scanner.ErrTimeout
		}
		return nil, time.Time{}, classifyErr(err)
	}
	return buf[:n], at, nil
}

// WriteBatch implements scanner.BatchTransport. UDP writes are already one
// syscall each, so the win here is skipping the per-packet interface and
// error-classification overhead on the happy path.
func (t *UDPTransport) WriteBatch(pkts [][]byte) (int, error) {
	for i, b := range pkts {
		if _, err := t.conn.Write(b); err != nil {
			return i, classifyErr(err)
		}
	}
	return len(pkts), nil
}

// ReadBatch implements scanner.BatchTransport with a reused 64 KB scratch
// buffer, so draining a burst of replies costs zero allocations instead of
// one 64 KB buffer per packet. The first read honors `wait`; the rest only
// take datagrams already queued in the socket buffer.
func (t *UDPTransport) ReadBatch(pkts [][]byte, ats []time.Time, wait time.Duration) (int, error) {
	if t.rbuf == nil {
		t.rbuf = make([]byte, 64*1024)
	}
	count := 0
	for count < len(pkts) {
		deadline := time.Now()
		if count == 0 {
			if wait <= 0 {
				wait = time.Millisecond
			}
			deadline = deadline.Add(wait)
		}
		if err := t.conn.SetReadDeadline(deadline); err != nil {
			return count, err
		}
		n, err := t.conn.Read(t.rbuf)
		at := time.Now()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded) {
				return count, nil
			}
			return count, classifyErr(err)
		}
		pkts[count] = append(pkts[count][:0], t.rbuf[:n]...)
		ats[count] = at
		count++
	}
	return count, nil
}

// Close releases the socket.
func (t *UDPTransport) Close() error { return t.conn.Close() }

// transientSocketErr marks socket errors that a retry can plausibly clear,
// so the scanner's backoff machinery keys on them instead of treating the
// address (or the whole receive path) as dead.
type transientSocketErr struct{ err error }

func (e *transientSocketErr) Error() string   { return e.err.Error() }
func (e *transientSocketErr) Unwrap() error   { return e.err }
func (e *transientSocketErr) Transient() bool { return true }

// classifyErr wraps recoverable socket conditions — full send buffers,
// interrupted syscalls, momentary refusals while the far end restarts —
// as transient. Anything else passes through unchanged.
func classifyErr(err error) error {
	if err == nil {
		return nil
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.EAGAIN, syscall.ENOBUFS, syscall.EINTR, syscall.ECONNREFUSED:
			return &transientSocketErr{err: err}
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &transientSocketErr{err: err}
	}
	return err
}
