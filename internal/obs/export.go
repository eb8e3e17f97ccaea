package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"countrymon/internal/query"
)

// WritePrometheus writes the registry in the Prometheus text exposition
// format (counters and gauges as-is, histograms as summaries with window
// quantiles), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.snapshot(func(f *family, children []*child) {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		switch {
		case f.labels != nil:
			for _, ch := range children {
				if f.kind == kindGauge {
					fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(f.labels, ch.values), ch.g.Value())
				} else {
					fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(f.labels, ch.values), ch.c.Value())
				}
			}
		case f.kind == kindCounter:
			fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
		case f.kind == kindGauge:
			fmt.Fprintf(w, "%s %d\n", f.name, f.gauge.Value())
		case f.kind == kindSummary:
			s := f.hist.Snapshot()
			fmt.Fprintf(w, "%s{quantile=\"0.5\"} %s\n", f.name, promFloat(s.P50))
			fmt.Fprintf(w, "%s{quantile=\"0.95\"} %s\n", f.name, promFloat(s.P95))
			fmt.Fprintf(w, "%s{quantile=\"0.99\"} %s\n", f.name, promFloat(s.P99))
			fmt.Fprintf(w, "%s_sum %s\n", f.name, promFloat(s.Sum))
			fmt.Fprintf(w, "%s_count %d\n", f.name, s.Count)
		}
	})
}

func promLabels(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(values[i]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonSeries is one labeled sample in the JSON export: counter children
// carry `value`, gauge children carry `gauge`.
type jsonSeries struct {
	Labels map[string]string `json:"labels"`
	Value  *uint64           `json:"value,omitempty"`
	Gauge  *int64            `json:"gauge,omitempty"`
}

// jsonMetric is one metric family in the JSON export.
type jsonMetric struct {
	Type    string        `json:"type"`
	Help    string        `json:"help,omitempty"`
	Value   *uint64       `json:"value,omitempty"`
	Gauge   *int64        `json:"gauge,omitempty"`
	Summary *HistSnapshot `json:"summary,omitempty"`
	Series  []jsonSeries  `json:"series,omitempty"`
}

// WriteJSON writes the registry as a JSON object keyed by metric name.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]jsonMetric)
	if r != nil {
		r.snapshot(func(f *family, children []*child) {
			m := jsonMetric{Type: f.kind, Help: f.help}
			switch {
			case f.labels != nil:
				m.Series = make([]jsonSeries, 0, len(children))
				for _, ch := range children {
					labels := make(map[string]string, len(f.labels))
					for i, n := range f.labels {
						labels[n] = ch.values[i]
					}
					s := jsonSeries{Labels: labels}
					if f.kind == kindGauge {
						g := ch.g.Value()
						s.Gauge = &g
					} else {
						v := ch.c.Value()
						s.Value = &v
					}
					m.Series = append(m.Series, s)
				}
			case f.kind == kindCounter:
				v := f.counter.Value()
				m.Value = &v
			case f.kind == kindGauge:
				v := f.gauge.Value()
				m.Gauge = &v
			case f.kind == kindSummary:
				s := f.hist.Snapshot()
				m.Summary = &s
			}
			out[f.name] = m
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// MetricsHandler serves the registry: Prometheus text by default, JSON with
// ?format=json or an Accept: application/json header.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "no metrics registry attached", http.StatusServiceUnavailable)
			return
		}
		if wantsJSON(r) {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
}

// EventsHandler serves the bus. The default response is a server-sent-event
// stream: the retained backlog after ?since=N (0 = everything retained),
// then live events until the client disconnects. With ?format=json it is a
// long-poll instead: events after ?since are returned immediately, or —
// when there are none — the request waits up to ?wait (a Go duration,
// default 0) for the next event.
func EventsHandler(bus *Bus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if bus == nil {
			http.Error(w, "no event bus attached", http.StatusServiceUnavailable)
			return
		}
		since, _ := strconv.ParseUint(query.Get(r.URL.RawQuery, "since"), 10, 64)
		if wantsJSON(r) {
			serveEventsJSON(w, r, bus, since)
			return
		}
		serveEventsSSE(w, r, bus, since)
	})
}

func serveEventsJSON(w http.ResponseWriter, r *http.Request, bus *Bus, since uint64) {
	evs := bus.Since(since)
	if len(evs) == 0 {
		if wait, err := time.ParseDuration(query.Get(r.URL.RawQuery, "wait")); err == nil && wait > 0 {
			ch, cancel := bus.Subscribe(1)
			defer cancel()
			select {
			case <-ch:
				evs = bus.Since(since)
			case <-time.After(wait):
			case <-r.Context().Done():
				return
			}
		}
	}
	if evs == nil {
		evs = []Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(evs)
}

func serveEventsSSE(w http.ResponseWriter, r *http.Request, bus *Bus, since uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported; use ?format=json", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	// Subscribe before replaying the backlog so no event can fall between
	// the two; the seq guard below drops the overlap. The buffer is small —
	// at 10k SSE clients per-subscriber memory dominates — because a client
	// that overruns it just re-syncs from the ring via the gap replay below.
	ch, cancel := bus.Subscribe(64)
	defer cancel()
	last := since
	writeEvent := func(ev Event) bool {
		if ev.Seq <= last {
			return true
		}
		last = ev.Seq
		data, err := json.Marshal(ev)
		if err != nil {
			return true
		}
		_, werr := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Kind, ev.Seq, data)
		flusher.Flush()
		return werr == nil
	}
	for _, ev := range bus.Since(since) {
		if !writeEvent(ev) {
			return
		}
	}
	// Drops from this subscriber's channel are only *detected* when a later
	// event arrives; if the bus goes quiet right after an overrun, the gap
	// would persist. The re-sync ticker bounds that: at worst one period
	// after quiescence the client is whole again.
	resync := time.NewTicker(sseResyncInterval)
	defer resync.Stop()
	for {
		select {
		case ev := <-ch:
			if ev.Seq > last+1 {
				// Events were dropped from this subscriber's channel (slow
				// consumer); re-sync from the authoritative ring. The replay
				// includes ev itself, and writeEvent skips anything at or
				// below last, so nothing is duplicated or lost (unless the
				// gap outran the ring window — then the stream resumes at
				// the oldest retained event, like any ?since replay).
				for _, missed := range bus.Since(last) {
					if !writeEvent(missed) {
						return
					}
				}
				continue
			}
			if !writeEvent(ev) {
				return
			}
		case <-resync.C:
			if bus.Seq() > last {
				for _, missed := range bus.Since(last) {
					if !writeEvent(missed) {
						return
					}
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// sseResyncInterval is how often an idle SSE stream checks the ring for
// events its subscriber channel dropped.
const sseResyncInterval = 250 * time.Millisecond

func wantsJSON(r *http.Request) bool {
	if query.Get(r.URL.RawQuery, "format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// Handler bundles the standalone observability server: /metrics, /events,
// and an index at / listing both. This is what the CLIs' -metrics flag
// serves; embedders with their own mux mount MetricsHandler and
// EventsHandler directly.
func Handler(reg *Registry, bus *Bus) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/events", EventsHandler(bus))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "countrymon observability")
		fmt.Fprintln(w, "")
		fmt.Fprintln(w, "  /metrics                 Prometheus text (add ?format=json for JSON)")
		fmt.Fprintln(w, "  /events                  live SSE stream (?since=N to replay)")
		fmt.Fprintln(w, "  /events?format=json      long-poll (?since=N&wait=30s)")
	})
	return mux
}
