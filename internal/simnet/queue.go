package simnet

// pendingReply is one reply R waiting for its delivery time.
type pendingReply[R any] struct {
	at  int64  // delivery time, nanoseconds since the wire's start
	seq uint64 // push order, the tiebreaker among equal delivery times
	r   R
}

func (a *pendingReply[R]) before(b *pendingReply[R]) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// replyQueue holds the in-flight replies of a simulated wire — records on
// the IPv4 wire, encoded datagrams on the IPv6 one — as a binary min-heap
// ordered by (delivery time, push order), so equal delivery times pop in the
// order they were pushed. The heap's storage doubles from 64 entries, so a
// fresh queue reaches n replies in flight in O(log n) allocations and at most
// twice n entries of bytes, and in steady state neither pushing nor popping
// allocates.
type replyQueue[R any] struct {
	heap []pendingReply[R]
	seq  uint64
}

func (q *replyQueue[R]) len() int { return len(q.heap) }

// push enqueues r for delivery at `at`, in nanoseconds since the wire's
// start, and returns the push order it was given.
func (q *replyQueue[R]) push(r R, at int64) uint64 {
	p := pendingReply[R]{at: at, seq: q.seq, r: r}
	q.seq++
	if len(q.heap) == cap(q.heap) {
		grown := make([]pendingReply[R], len(q.heap), max(2*cap(q.heap), 64))
		copy(grown, q.heap)
		q.heap = grown
	}
	q.heap = q.heap[:len(q.heap)+1]
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
	return p.seq
}

// pop removes the earliest reply, which the caller has read at heap[0].
// The queue must not be empty.
func (q *replyQueue[R]) pop() {
	h := q.heap
	last := len(h) - 1
	p := h[last]
	h[last] = pendingReply[R]{}
	h = h[:last]
	q.heap = h
	if last == 0 {
		return
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
}
