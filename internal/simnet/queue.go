package simnet

// pendingReply is one reply R waiting for its delivery time, in a slot of
// the queue's slab.
type pendingReply[R any] struct {
	at   int64 // delivery time, nanoseconds since the wire's start
	next int32 // the next slot of its bucket's ring, or of the free list
	r    R
}

// The calendar: bucketCount buckets of bucketWidth nanoseconds each, one lap
// of the wheel being lapWidth (≈ 67 ms, a few round-trip times). A delivery
// time at lies in the absolute bucket at>>bucketBits, filed under index
// at>>bucketBits mod bucketCount, so a bucket holds the replies of every lap
// that falls on it.
const (
	bucketBits  = 21
	bucketWidth = 1 << bucketBits
	bucketCount = 32
	lapWidth    = bucketWidth * bucketCount
)

// replyQueue holds the in-flight replies of the simulated wire in delivery
// order: (delivery time, push order), so equal delivery times pop in the
// order they were pushed. The wire queues records; the payload R is a type
// parameter so that a test can queue its own. It is a calendar queue (Brown,
// CACM 1988): each bucket is a ring of slots linked through next and sorted
// by delivery time, a push going after every entry due no later than it, and
// the queue keeps only each bucket's tail, whose next is the bucket's head. A
// push appends at the tail when it is due no earlier than the tail (the
// common case) and walks the ring from the head otherwise; the earliest reply
// is the head of the bucket cur when that head lies in the absolute bucket
// cur, so top() advances cur over the wheel, and after a lap with no hit
// (nothing due within a lap of cur) searches the heads directly.
//
// The entries live in one slab, reused through a free list, that doubles
// from 64 slots: a fresh queue reaches n replies in flight in O(log n)
// allocations and at most twice n entries of bytes, and in steady state
// neither pushing nor popping allocates. The bucket table is inline, so a
// fresh queue costs nothing until its first push.
type replyQueue[R any] struct {
	slab []pendingReply[R]
	// cur is an absolute bucket no later than any entry's.
	cur int64
	n   int32
	// free is the first free slot + 1, or 0; a free slot's next holds the
	// following free slot + 1, or 0.
	free int32
	// tail[k] is the last slot + 1 of bucket k's ring, or 0 when it is
	// empty.
	tail [bucketCount]int32
}

func (q *replyQueue[R]) len() int { return int(q.n) }

// reset empties the queue, keeping its slab for the replies to come.
func (q *replyQueue[R]) reset() { *q = replyQueue[R]{slab: q.slab[:0]} }

// push enqueues r for delivery at `at`, in nanoseconds since the wire's
// start, and returns the slot it sits in until it is popped.
func (q *replyQueue[R]) push(r R, at int64) int32 {
	i := q.alloc()
	p := &q.slab[i]
	p.at, p.r = at, r
	b := at >> bucketBits
	if b < q.cur || q.n == 0 {
		q.cur = b
	}
	q.n++
	k := b & (bucketCount - 1)
	t := q.tail[k] - 1
	switch {
	case t < 0:
		p.next = i
	case at >= q.slab[t].at:
		p.next, q.slab[t].next = q.slab[t].next, i
	default:
		// Due before the tail: insert after the last entry due no later
		// than at, which the tail bounds the walk by.
		prev, c := t, q.slab[t].next
		for q.slab[c].at <= at {
			prev, c = c, q.slab[c].next
		}
		p.next, q.slab[prev].next = c, i
		return i
	}
	q.tail[k] = i + 1
	return i
}

// alloc takes a slot from the free list, or from the slab's end, doubling it
// when it is full.
func (q *replyQueue[R]) alloc() int32 {
	if q.free != 0 {
		i := q.free - 1
		q.free = q.slab[i].next
		return i
	}
	if len(q.slab) == cap(q.slab) {
		grown := make([]pendingReply[R], len(q.slab), max(2*cap(q.slab), 64))
		copy(grown, q.slab)
		q.slab = grown
	}
	q.slab = q.slab[:len(q.slab)+1]
	return int32(len(q.slab) - 1)
}

// top returns the slot of the earliest reply, which stays queued until pop.
// The queue must not be empty.
func (q *replyQueue[R]) top() int32 {
	for range bucketCount {
		if t := q.tail[q.cur&(bucketCount-1)] - 1; t >= 0 {
			if h := q.slab[t].next; q.slab[h].at>>bucketBits == q.cur {
				return h
			}
		}
		q.cur++
	}
	// A lap with no hit: the earliest reply is the earliest bucket head.
	best := int32(-1)
	for _, t := range q.tail {
		if t != 0 {
			if h := q.slab[t-1].next; best < 0 || q.slab[h].at < q.slab[best].at {
				best = h
			}
		}
	}
	q.cur = q.slab[best].at >> bucketBits
	return best
}

// pop removes the earliest reply, the one top returned; no push may come
// between the two.
func (q *replyQueue[R]) pop() {
	k := q.cur & (bucketCount - 1)
	t := q.tail[k] - 1
	h := q.slab[t].next
	if h == t {
		q.tail[k] = 0
	} else {
		q.slab[t].next = q.slab[h].next
	}
	q.slab[h] = pendingReply[R]{next: q.free}
	q.free = h + 1
	q.n--
}
