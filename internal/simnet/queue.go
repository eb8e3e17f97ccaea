package simnet

// slotSize is the capacity of one reply slot. It holds every reply the IPv4
// wire produces for a scanner probe — an echo reply is 36 bytes, a host
// unreachable quoting the probe 56 — and anything larger gets its own
// allocation from buffer.
const slotSize = 64

// pendingReply is one encoded datagram waiting for its delivery time.
type pendingReply struct {
	at  int64  // delivery time, nanoseconds since the wire's start
	seq uint64 // push order, the tiebreaker among equal delivery times
	pkt []byte
}

func (a *pendingReply) before(b *pendingReply) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// replyQueue holds the in-flight replies of a simulated wire, IPv4 or IPv6,
// as a binary min-heap ordered by (delivery time, push order), so equal
// delivery times pop in the order they were pushed. It also owns the reply
// bytes of the IPv4 wire: fixed-size slots carved from slabs that double in
// size, handed out by buffer and taken back by release. In steady state
// neither pushing nor popping allocates, and a fresh queue reaches any number
// of in-flight replies in O(log n) allocations.
type replyQueue struct {
	heap  []pendingReply
	seq   uint64
	free  [][]byte // empty slots, each with cap == slotSize
	slots int      // slots carved so far
}

func (q *replyQueue) len() int { return len(q.heap) }

// buffer returns an empty buffer with room for n bytes: a slot when n fits
// one, else a fresh allocation (cap > slotSize, which is how release tells
// them apart).
func (q *replyQueue) buffer(n int) []byte {
	if n > slotSize {
		return make([]byte, 0, n)
	}
	if len(q.free) == 0 {
		grow := max(q.slots, 64)
		slab := make([]byte, grow*slotSize)
		for off := 0; off < len(slab); off += slotSize {
			q.free = append(q.free, slab[off:off:off+slotSize])
		}
		q.slots += grow
	}
	last := len(q.free) - 1
	b := q.free[last]
	q.free = q.free[:last]
	return b
}

// release returns a popped reply's bytes to the free list once the caller
// has copied them out. Bytes that are not a slot are left to the collector.
func (q *replyQueue) release(pkt []byte) {
	if cap(pkt) == slotSize {
		q.free = append(q.free, pkt[:0])
	}
}

// push enqueues pkt for delivery at `at`, in nanoseconds since the wire's
// start. The queue keeps pkt.
func (q *replyQueue) push(pkt []byte, at int64) {
	p := pendingReply{at: at, seq: q.seq, pkt: pkt}
	q.seq++
	q.heap = append(q.heap, p)
	// Sift up, moving parents down into the hole instead of swapping.
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

// pop removes and returns the earliest reply. The queue must not be empty.
func (q *replyQueue) pop() pendingReply {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	p := h[last]
	h[last] = pendingReply{}
	h = h[:last]
	q.heap = h
	if last == 0 {
		return top
	}
	// Sift the former tail down from the root, moving children up.
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
