package scanner

import (
	"errors"
	"time"
)

// DefaultBatch is the number of packets handed to the transport per
// WriteBatch/ReadBatch call. 64 matches the token bucket's default burst, so
// a batch is exactly one burst of probes.
const DefaultBatch = 64

// BatchTransport extends Transport with batched I/O, amortizing per-packet
// overhead (locks, syscalls) across a whole burst, in the spirit of ZMap's
// sendmmsg batching.
type BatchTransport interface {
	Transport

	// WriteBatch transmits pkts in order and returns how many were sent.
	// When n < len(pkts), err explains why pkts[n] could not be sent (it is
	// never nil in that case), so the caller can retry or abandon that
	// packet and resubmit the tail. Implementations must not retain the
	// buffers after returning.
	WriteBatch(pkts [][]byte) (n int, err error)

	// ReadBatch fills pkts[i] (reusing each slot's backing storage via
	// append(pkts[i][:0], ...)) and ats[i] with inbound datagrams and their
	// receive times. The first packet may be waited for up to `wait`
	// (0 = poll); packets after the first are taken only if immediately
	// available. It returns how many slots were filled: (0, nil) means the
	// wait elapsed with nothing to read — a timeout is not an error — while
	// a non-nil err reports a receive failure after n good packets.
	ReadBatch(pkts [][]byte, ats []time.Time, wait time.Duration) (n int, err error)
}

// AsBatch returns tr's batched view: the transport itself when it already
// implements BatchTransport, else a shim that loops the packet-at-a-time
// calls. The shim keeps per-packet semantics (call order, error identity)
// exactly as a packet-at-a-time engine saw them, so plain test transports behave
// identically under the batched engine.
func AsBatch(tr Transport) BatchTransport {
	if bt, ok := tr.(BatchTransport); ok {
		return bt
	}
	return &batchShim{Transport: tr}
}

type batchShim struct {
	Transport
}

func (s *batchShim) WriteBatch(pkts [][]byte) (int, error) {
	for i, p := range pkts {
		if err := s.Transport.WritePacket(p); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func (s *batchShim) ReadBatch(pkts [][]byte, ats []time.Time, wait time.Duration) (int, error) {
	count := 0
	for count < len(pkts) {
		pkt, at, err := s.Transport.ReadPacket(wait)
		wait = 0
		if err != nil {
			if errors.Is(err, ErrTimeout) {
				return count, nil
			}
			return count, err
		}
		pkts[count] = append(pkts[count][:0], pkt...)
		ats[count] = at
		count++
	}
	return count, nil
}
