package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
)

// shimStats accumulates what every shim sharing it saw. Scans of one fleet
// round run on several goroutines, each over its own transport, so the
// counters are atomic and the packet samples sit behind a mutex that is
// only taken until the samples are full.
type shimStats struct {
	writeNs, readNs       atomic.Int64
	writeCalls, readCalls atomic.Int64
	writePkts, readPkts   atomic.Int64

	sampleFull atomic.Bool
	mu         sync.Mutex
	sent, recv [][]byte
}

// sampleCap is how many probes and replies are kept for the codec
// micro-loops.
const sampleCap = 2048

// snapshot is a copy of the counters, for per-round deltas.
type shimSnapshot struct {
	writeNs, readNs, writeCalls, readCalls, writePkts, readPkts int64
}

func (s *shimStats) snapshot() shimSnapshot {
	return shimSnapshot{
		s.writeNs.Load(), s.readNs.Load(), s.writeCalls.Load(),
		s.readCalls.Load(), s.writePkts.Load(), s.readPkts.Load(),
	}
}

func (a shimSnapshot) sub(b shimSnapshot) shimSnapshot {
	return shimSnapshot{
		a.writeNs - b.writeNs, a.readNs - b.readNs, a.writeCalls - b.writeCalls,
		a.readCalls - b.readCalls, a.writePkts - b.writePkts, a.readPkts - b.readPkts,
	}
}

func (s *shimStats) capture(dst *[][]byte, pkts [][]byte) {
	s.mu.Lock()
	for _, p := range pkts {
		if len(*dst) >= sampleCap {
			break
		}
		*dst = append(*dst, append([]byte(nil), p...))
	}
	if len(s.sent) >= sampleCap && len(s.recv) >= sampleCap {
		s.sampleFull.Store(true)
	}
	s.mu.Unlock()
}

// shim is a pass-through transport that times every batch call and keeps a
// sample of the packets. It implements scanner.BatchTransport itself and
// forwards to the inner transport's own batch path: were it a plain
// Transport, the scanner's AsBatch would wrap it in the packet-at-a-time
// adapter and the measured run would no longer take the native batch path.
// It implements scanner.Clock by delegation, so it can stand in as
// Options.Transport for a clock-bearing transport like simnet.Network, and
// wraps whatever campaign.Options.WrapTransport hands it (outermost, so
// the time of an injected fault counts as transport time).
type shim struct {
	inner scanner.BatchTransport
	clock scanner.Clock
	st    *shimStats
}

func newShim(inner scanner.Transport, st *shimStats) *shim {
	clock, ok := inner.(scanner.Clock)
	if !ok {
		clock = scanner.RealClock{}
	}
	// AsBatch on the inner transport is what the scanner would have done
	// with it unshimmed: the transport itself when it batches natively.
	return &shim{inner: scanner.AsBatch(inner), clock: clock, st: st}
}

func (s *shim) LocalAddr() netmodel.Addr { return s.inner.LocalAddr() }
func (s *shim) Now() time.Time           { return s.clock.Now() }
func (s *shim) Sleep(d time.Duration)    { s.clock.Sleep(d) }

// Close forwards to transports that have something to release.
func (s *shim) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (s *shim) WritePacket(b []byte) error {
	_, err := s.WriteBatch([][]byte{b})
	return err
}

func (s *shim) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	return s.inner.ReadPacket(wait)
}

func (s *shim) WriteBatch(pkts [][]byte) (int, error) {
	if !s.st.sampleFull.Load() {
		s.st.capture(&s.st.sent, pkts)
	}
	t0 := time.Now()
	n, err := s.inner.WriteBatch(pkts)
	s.st.writeNs.Add(int64(time.Since(t0)))
	s.st.writeCalls.Add(1)
	s.st.writePkts.Add(int64(n))
	return n, err
}

func (s *shim) ReadBatch(pkts [][]byte, ats []time.Time, wait time.Duration) (int, error) {
	t0 := time.Now()
	n, err := s.inner.ReadBatch(pkts, ats, wait)
	s.st.readNs.Add(int64(time.Since(t0)))
	s.st.readCalls.Add(1)
	s.st.readPkts.Add(int64(n))
	if n > 0 && !s.st.sampleFull.Load() {
		s.st.capture(&s.st.recv, pkts[:n])
	}
	return n, err
}
