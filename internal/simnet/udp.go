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

// UDPTransport implements scanner.Transport over the tunnel. Reads come
// from one goroutine.
type UDPTransport struct {
	conn  *net.UDPConn
	local netmodel.Addr
	rbuf  []byte // read scratch
	// ReadBatch's reads past the first: drain reads the socket into rbuf
	// without waiting, leaving the result in rn and rerr.
	raw   syscall.RawConn
	drain func(fd uintptr) bool
	rn    int
	rerr  error
}

// DialUDP connects a transport to a WireServer.
func DialUDP(server *net.UDPAddr, local netmodel.Addr) (*UDPTransport, error) {
	conn, err := net.DialUDP("udp", nil, server)
	if err != nil {
		return nil, err
	}
	raw, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, err
	}
	t := &UDPTransport{conn: conn, local: local, rbuf: make([]byte, 64*1024), raw: raw}
	t.drain = func(fd uintptr) bool {
		t.rn, t.rerr = syscall.Read(int(fd), t.rbuf)
		return true // never wait for more
	}
	return t, nil
}

// LocalAddr implements scanner.Transport.
func (t *UDPTransport) LocalAddr() netmodel.Addr { return t.local }

// WritePacket implements scanner.Transport.
func (t *UDPTransport) WritePacket(b []byte) error {
	_, err := t.conn.Write(b)
	return classifyErr(err)
}

// ReadPacket implements scanner.Transport. The datagram is read into the
// transport's scratch buffer and returned as an exact-size copy.
func (t *UDPTransport) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	n, at, err := t.readWait(wait)
	if err != nil {
		return nil, time.Time{}, err
	}
	return append([]byte(nil), t.rbuf[:n]...), at, nil
}

// readWait reads one datagram into t.rbuf, waiting up to wait (1 ms if wait
// ≤ 0) for it.
func (t *UDPTransport) readWait(wait time.Duration) (int, time.Time, error) {
	if wait <= 0 {
		wait = time.Millisecond
	}
	if err := t.conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		return 0, time.Time{}, err
	}
	n, err := t.conn.Read(t.rbuf)
	at := time.Now()
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded) {
			return 0, time.Time{}, scanner.ErrTimeout
		}
		return 0, time.Time{}, classifyErr(err)
	}
	return n, at, nil
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
// buffer, so draining a burst of replies costs no allocation per packet. The
// first read honors `wait`; the rest take only the datagrams already queued
// in the socket buffer, reading the socket directly until it reports EAGAIN
// instead of waiting on it.
func (t *UDPTransport) ReadBatch(pkts [][]byte, ats []time.Time, wait time.Duration) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	n, at, err := t.readWait(wait)
	if err == scanner.ErrTimeout {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	pkts[0] = append(pkts[0][:0], t.rbuf[:n]...)
	ats[0] = at
	// The first read's deadline would fail the raw read once it passes.
	if err := t.conn.SetReadDeadline(time.Time{}); err != nil {
		return 1, err
	}
	count := 1
	for count < len(pkts) {
		if err := t.raw.Read(t.drain); err != nil {
			return count, classifyErr(err)
		}
		if t.rerr == syscall.EAGAIN {
			break
		}
		if t.rerr != nil {
			return count, classifyErr(t.rerr)
		}
		pkts[count] = append(pkts[count][:0], t.rbuf[:t.rn]...)
		ats[count] = time.Now()
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
