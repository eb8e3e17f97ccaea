package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured campaign event: a round starting or ending, a
// checkpoint written, a retry taken, a detection firing. Seq is a
// bus-assigned monotone sequence number, so pollers can resume from the
// last event they saw. Country is the Bus.Scope it was published through,
// empty for an event of no one country's. Fields is the payload: the struct
// its kind's emit site publishes (its json tags list its keys in sorted
// order, so it encodes as the map of those keys would), a non-empty map
// from Publish, or nil. Decoded from JSON, it is a map[string]any.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	Country string    `json:"country,omitempty"`
	Fields  any       `json:"fields,omitempty"`
}

// Time is a time an event payload holds as it is and writes, as text, in
// UTC to the second (RFC 3339).
type Time time.Time

// MarshalText writes t as UTC RFC 3339.
func (t Time) MarshalText() ([]byte, error) {
	return time.Time(t).UTC().AppendFormat(make([]byte, 0, len(time.RFC3339)), time.RFC3339), nil
}

// Error is an error an event payload holds as it is and writes as its text.
type Error struct{ Err error }

// MarshalText writes e's error text.
func (e Error) MarshalText() ([]byte, error) { return []byte(e.Err.Error()), nil }

// Bus is a bounded in-memory event stream: every published event lands in a
// ring of the most recent events (the authority pollers replay from) and is
// fanned out to live subscribers. A subscriber that cannot keep up has
// events dropped from its channel, never from the ring — slow consumers
// must re-sync via Since. Publish on a nil bus is a no-op.
type Bus struct {
	*stream
	country string // a Scope's: stamped on what it publishes, filters what it reads
}

type stream struct { // shared by a bus and its scopes
	mu     sync.Mutex
	seq    uint64
	ring   []Event // capacity-bounded, oldest overwritten
	next   int
	filled bool
	subs   map[*subscriber]struct{}
	// drops counts events discarded from lagging subscribers' channels
	// (never from the ring); dropCounters, set by CountDrops, mirror them
	// by the subscriber's country.
	drops        atomic.Uint64
	dropCounters map[string]*Counter
}

// subscriber is one live subscription of a view of country; lagged is set
// when Publish drops an event for it.
type subscriber struct {
	ch      chan Event
	country string
	lagged  atomic.Bool
}

// sees reports whether the view of country (every event for "") shows ev.
func sees(country string, ev *Event) bool {
	return country == "" || ev.Country == "" || ev.Country == country
}

// DefaultBusCapacity is the ring size when NewBus is called with cap <= 0.
const DefaultBusCapacity = 1024

// NewBus builds a bus retaining the last `capacity` events.
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
	}
	return &Bus{stream: &stream{ring: make([]Event, capacity),
		subs: make(map[*subscriber]struct{}), dropCounters: make(map[string]*Counter)}}
}

// Scope returns the bus's view for one country, over the same ring: what it
// publishes carries Event.Country, and its Since and Subscribe see that
// country's events plus the unscoped ones. A nil bus's scope is nil.
func (b *Bus) Scope(country string) *Bus {
	if b == nil {
		return nil
	}
	return &Bus{stream: b.stream, country: country}
}

// Publish stamps and emits one event, returning it (with Seq assigned). A
// nil bus publishes nothing and returns the event un-sequenced. A nil or
// empty map publishes no Fields.
func (b *Bus) Publish(kind string, fields map[string]any) Event {
	if len(fields) == 0 {
		return b.publish(kind, nil)
	}
	return b.publish(kind, fields)
}

// Emit publishes an event whose payload is built only when there is a bus
// to publish on: a nil bus calls nothing, so a hot path emits through it at
// the cost of one nil check, and a live one boxes the payload struct once.
func (b *Bus) Emit(kind string, payload func() any) {
	if b != nil {
		b.publish(kind, payload())
	}
}

// publish stamps and emits one event of payload fields.
func (b *Bus) publish(kind string, fields any) Event {
	ev := Event{Time: time.Now().UTC(), Kind: kind, Fields: fields}
	if b == nil {
		return ev
	}
	ev.Country = b.country
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	b.ring[b.next] = ev
	b.next = (b.next + 1) % len(b.ring)
	if b.next == 0 {
		b.filled = true
	}
	for s := range b.subs {
		if !sees(s.country, &ev) {
			continue
		}
		select {
		case s.ch <- ev:
		default: // subscriber lagging: drop; the ring keeps the event
			s.lagged.Store(true)
			b.drops.Add(1)
			b.dropCounters[s.country].Inc()
		}
	}
	b.mu.Unlock()
	return ev
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

// CountDrops mirrors every future drop for a subscriber of this view's
// country into c (typically a `bus_dropped_events_total` counter registered
// by the serving layer).
func (b *Bus) CountDrops(c *Counter) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.dropCounters[b.country] = c
	b.mu.Unlock()
}

// Seq returns the sequence number of the most recent event, of any country.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Since returns the retained events with Seq > seq that the view sees,
// oldest first. Events older than the ring window are gone.
func (b *Bus) Since(seq uint64) []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	appendFrom := func(evs []Event) {
		for i := range evs {
			if evs[i].Seq > seq && sees(b.country, &evs[i]) {
				out = append(out, evs[i])
			}
		}
	}
	if b.filled {
		appendFrom(b.ring[b.next:])
	}
	appendFrom(b.ring[:b.next])
	return out
}

// Subscribe returns a channel of the future events the view sees (buffered
// by buf, minimum 1) and a cancel function that releases the subscription.
func (b *Bus) Subscribe(buf int) (<-chan Event, func()) {
	if b == nil {
		return nil, func() {}
	}
	s, cancel := b.subscribe(buf)
	return s.ch, cancel
}

// subscribe registers a subscriber on a non-nil bus.
func (b *Bus) subscribe(buf int) (*subscriber, func()) {
	s := &subscriber{ch: make(chan Event, max(buf, 1)), country: b.country}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s, func() {
		b.mu.Lock()
		delete(b.subs, s)
		b.mu.Unlock()
	}
}
