// Package obs is the campaign's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, windowed histograms with
// p50/p95/p99, labeled families) and a structured event bus, exported over
// HTTP as Prometheus text, JSON and server-sent events.
//
// The paper's monitor ran unattended for three years and its operators had
// to distinguish vantage-side failure from real disruption (§3's "ongoing"
// flag, ISP-availability sensing); this package gives the reproduction the
// same live self-diagnosis. Every instrument is nil-safe — methods on a nil
// *Counter, *Gauge, *Histogram, *CounterVec or *Bus are no-ops — so hot
// paths carry their instrumentation unconditionally and pay only a nil
// check when no registry is attached (pinned by the package's
// no-allocation benchmark).
//
// Typical wiring:
//
//	reg := obs.NewRegistry()
//	bus := obs.NewBus(1024)
//	sent := reg.Counter("scanner_probes_sent_total", "Probes transmitted.")
//	...
//	http.ListenAndServe(":9090", obs.Handler(reg, bus))
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops, so disabled instrumentation costs one branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. All methods are nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultHistogramWindow is the observation window when Registry.Histogram
// is called with window <= 0.
const DefaultHistogramWindow = 512

// Histogram keeps the last `window` observations in a ring plus cumulative
// count and sum, and derives p50/p95/p99 over the window on demand — the
// classic windowed summary: recent enough to reflect the live campaign,
// bounded enough to never grow. All methods are nil-safe no-ops.
type Histogram struct {
	mu    sync.Mutex
	ring  []float64
	next  int
	count uint64
	sum   float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.ring[h.next] = v
	h.next = (h.next + 1) % len(h.ring)
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// ObserveSince records the seconds elapsed since t0. Use as
// `defer h.ObserveSince(time.Now())` to time a function body.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// HistSnapshot is a histogram's exported state: cumulative count and sum
// plus window quantiles.
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot returns the cumulative count/sum and the window's p50/p95/p99.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	n := int(h.count)
	if n > len(h.ring) {
		n = len(h.ring)
	}
	vals := make([]float64, n)
	copy(vals, h.ring[:n])
	snap := HistSnapshot{Count: h.count, Sum: h.sum}
	h.mu.Unlock()
	if n == 0 {
		return snap
	}
	sort.Float64s(vals)
	quant := func(p float64) float64 {
		i := int(p*float64(n-1) + 0.5)
		return vals[i]
	}
	snap.P50, snap.P95, snap.P99 = quant(0.50), quant(0.95), quant(0.99)
	return snap
}

// CounterVec is a labeled counter family. With resolves one label
// combination to its Counter; resolve once at setup and keep the pointer —
// a map lookup has no place on a per-packet path.
type CounterVec struct {
	fam *family
}

// With returns the counter for the given label values (created on first
// use). It returns nil — a valid, inert Counter receiver — on a nil vec or
// a label-arity mismatch.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || len(values) != len(v.fam.labels) {
		return nil
	}
	key := strings.Join(values, "\x00")
	f := v.fam
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = &child{values: append([]string(nil), values...), c: &Counter{}}
		f.children[key] = ch
		f.childOrder = append(f.childOrder, key)
	}
	return ch.c
}

// GaugeVec is a labeled gauge family: one instantaneous value per label
// combination (e.g. a health score per vantage). With resolves a label
// combination to its Gauge; resolve once at setup and keep the pointer.
type GaugeVec struct {
	fam *family
}

// With returns the gauge for the given label values (created on first use).
// It returns nil — a valid, inert Gauge receiver — on a nil vec or a
// label-arity mismatch.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || len(values) != len(v.fam.labels) {
		return nil
	}
	key := strings.Join(values, "\x00")
	f := v.fam
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = &child{values: append([]string(nil), values...), g: &Gauge{}}
		f.children[key] = ch
		f.childOrder = append(f.childOrder, key)
	}
	return ch.g
}

// metric kinds, mirrored in the export formats.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindSummary = "summary"
)

// family is one registered metric name: a plain instrument or a labeled set
// of children.
type family struct {
	name, help string
	kind       string
	labels     []string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	mu         sync.Mutex // children map (label resolution is not hot)
	children   map[string]*child
	childOrder []string
}

// child is one label combination of a family; exactly one of c/g is set,
// matching the family's kind.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
}

// Registry holds named metric families in registration order. Registration
// is idempotent — re-registering a name with the same shape returns the
// existing instrument, so independent subsystems can share one registry —
// and panics on a shape conflict, which is a programming error. All
// registration methods are nil-safe and return nil instruments on a nil
// registry, giving every instrumented package a single code path.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the existing family for name (validating its shape) or
// inserts a fresh one built by mk.
func (r *Registry) register(name, kind string, labels []string, mk func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := mk()
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or returns) a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, kindCounter, nil, func() *family {
		return &family{name: name, help: help, kind: kindCounter, counter: &Counter{}}
	})
	return f.counter
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, kindGauge, nil, func() *family {
		return &family{name: name, help: help, kind: kindGauge, gauge: &Gauge{}}
	})
	return f.gauge
}

// Histogram registers (or returns) a windowed histogram (window <= 0 uses
// DefaultHistogramWindow).
func (r *Registry) Histogram(name, help string, window int) *Histogram {
	if r == nil {
		return nil
	}
	if window <= 0 {
		window = DefaultHistogramWindow
	}
	f := r.register(name, kindSummary, nil, func() *family {
		return &family{name: name, help: help, kind: kindSummary,
			hist: &Histogram{ring: make([]float64, window)}}
	})
	return f.hist
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	f := r.register(name, kindCounter, labels, func() *family {
		return &family{name: name, help: help, kind: kindCounter,
			labels: append([]string(nil), labels...), children: make(map[string]*child)}
	})
	return &CounterVec{fam: f}
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	f := r.register(name, kindGauge, labels, func() *family {
		return &family{name: name, help: help, kind: kindGauge,
			labels: append([]string(nil), labels...), children: make(map[string]*child)}
	})
	return &GaugeVec{fam: f}
}

// snapshot walks families in registration order under the registry lock,
// handing each to visit with its children (if labeled) resolved.
func (r *Registry) snapshot(visit func(f *family, children []*child)) {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, len(order))
	for i, name := range order {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()
	for _, f := range fams {
		var chs []*child
		if f.labels != nil {
			f.mu.Lock()
			chs = make([]*child, len(f.childOrder))
			for i, key := range f.childOrder {
				chs[i] = f.children[key]
			}
			f.mu.Unlock()
		}
		visit(f, chs)
	}
}
