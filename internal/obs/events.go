package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured campaign event: a round starting or ending, a
// checkpoint written, a retry taken, a detection firing. Seq is a
// bus-assigned monotone sequence number, so pollers can resume from the
// last event they saw.
type Event struct {
	Seq    uint64         `json:"seq"`
	Time   time.Time      `json:"time"`
	Kind   string         `json:"kind"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Bus is a bounded in-memory event stream: every published event lands in a
// ring of the most recent events (the authority pollers replay from) and is
// fanned out to live subscribers. A subscriber that cannot keep up has
// events dropped from its channel, never from the ring — slow consumers
// must re-sync via Since. Publish on a nil bus is a no-op.
type Bus struct {
	mu      sync.Mutex
	seq     uint64
	ring    []Event // capacity-bounded, oldest overwritten
	next    int
	filled  bool
	subs    map[uint64]chan Event
	nextSub uint64
	// drops counts events discarded from lagging subscribers' channels
	// (never from the ring). dropCounter, when set via CountDrops, mirrors
	// every drop into a registry metric.
	drops       atomic.Uint64
	dropCounter atomic.Pointer[Counter]
}

// DefaultBusCapacity is the ring size when NewBus is called with cap <= 0.
const DefaultBusCapacity = 1024

// NewBus builds a bus retaining the last `capacity` events.
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
	}
	return &Bus{ring: make([]Event, capacity), subs: make(map[uint64]chan Event)}
}

// Publish stamps and emits one event, returning it (with Seq assigned). A
// nil bus publishes nothing and returns the event un-sequenced.
func (b *Bus) Publish(kind string, fields map[string]any) Event {
	ev := Event{Time: time.Now().UTC(), Kind: kind, Fields: fields}
	if b == nil {
		return ev
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	b.ring[b.next] = ev
	b.next = (b.next + 1) % len(b.ring)
	if b.next == 0 {
		b.filled = true
	}
	for _, ch := range b.subs {
		select {
		case ch <- ev:
		default: // subscriber lagging: drop; the ring keeps the event
			b.drops.Add(1)
			b.dropCounter.Load().Inc()
		}
	}
	b.mu.Unlock()
	return ev
}

// Emit publishes an event whose fields are built only when there is a bus
// to publish on: a nil bus builds no map, so a hot path emits through it at
// the cost of one nil check.
func (b *Bus) Emit(kind string, fields func() map[string]any) {
	if b != nil {
		b.Publish(kind, fields())
	}
}

// Dropped returns the total number of per-subscriber drops: events a lagging
// subscriber's channel could not absorb. The events themselves are never
// lost — the ring retains them and SSE clients re-sync via Since — so this
// is a congestion signal, not a data-loss count.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.drops.Load()
}

// CountDrops mirrors every future subscriber drop into c (typically a
// `bus_dropped_events_total` counter registered by the serving layer).
func (b *Bus) CountDrops(c *Counter) {
	if b == nil {
		return
	}
	b.dropCounter.Store(c)
}

// Seq returns the sequence number of the most recent event.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Since returns the retained events with Seq > seq, oldest first. Events
// older than the ring window are gone; callers detect the gap when the
// first returned Seq exceeds seq+1.
func (b *Bus) Since(seq uint64) []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	appendFrom := func(evs []Event) {
		for _, ev := range evs {
			if ev.Seq > seq {
				out = append(out, ev)
			}
		}
	}
	if b.filled {
		appendFrom(b.ring[b.next:])
	}
	appendFrom(b.ring[:b.next])
	return out
}

// Subscribe returns a channel of future events (buffered by buf, minimum 1)
// and a cancel function that must be called to release the subscription.
func (b *Bus) Subscribe(buf int) (<-chan Event, func()) {
	if b == nil {
		return nil, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Event, buf)
	b.mu.Lock()
	id := b.nextSub
	b.nextSub++
	b.subs[id] = ch
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.mu.Unlock()
	}
}
