package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark itself (the program carries no spans of its own yet). Parent is
// the index of the span that caused it (-1 for a root); Op is the round,
// request or pass the span belongs to, so all spans of one op share it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	// Calls is set on aggregate spans: the transport shim reports one child
	// per scan holding the summed time of its Calls batch calls, because a
	// span per 64-packet batch would outweigh the work it measures.
	Calls int64 `json:"calls,omitempty"`
}

// tracer keeps spans in memory; they are written out when the pass ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = t.now()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, op int, f func()) time.Duration {
	i := t.begin(name, parent, op)
	f()
	return t.end(i)
}

// aggregate records a child of parent that stands for calls calls taking
// busy in total; it is placed at the parent's start.
func (t *tracer) aggregate(name string, parent, op int, busy time.Duration, calls int64) {
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(busy),
		Parent: parent, Op: op, Calls: calls})
}

// durations returns the duration of every span called name, in order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, time.Duration(t.spans[i].End-t.spans[i].Start))
		}
	}
	return out
}

// self returns span i's duration minus the part of it its children cover:
// the union of the intervals of ordinary children plus the summed time of
// aggregate children (whose calls ran inside the parent, one after another).
func (t *tracer) self(i int) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	var agg int64
	for j := range t.spans {
		c := &t.spans[j]
		if c.Parent != i {
			continue
		}
		if c.Calls > 0 {
			agg += c.End - c.Start
			continue
		}
		ivs = append(ivs, iv{c.Start, c.End})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, hi int64
	for k, v := range ivs {
		if k == 0 || v.lo > hi {
			covered += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			covered += v.hi - hi
			hi = v.hi
		}
	}
	d := t.spans[i].End - t.spans[i].Start - covered - agg
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// selfOf returns self(i) for every span called name.
func (t *tracer) selfOf(name string) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.self(i))
		}
	}
	return out
}

// rootSumByOp sums the durations of root spans per op: how much of each
// op's time the stepped pass attributes to a layer.
func (t *tracer) rootSumByOp() map[int]time.Duration {
	out := map[int]time.Duration{}
	for i := range t.spans {
		if t.spans[i].Parent == -1 {
			out[t.spans[i].Op] += time.Duration(t.spans[i].End - t.spans[i].Start)
		}
	}
	return out
}
