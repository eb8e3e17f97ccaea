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
		for _, ch := range children {
			labels := promLabels(f.labels, ch.values, "")
			switch x := ch.inst.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, labels, x.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, labels, x.Value())
			case *Histogram:
				s := x.Snapshot()
				fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(f.labels, ch.values, "0.5"), promFloat(s.P50))
				fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(f.labels, ch.values, "0.95"), promFloat(s.P95))
				fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(f.labels, ch.values, "0.99"), promFloat(s.P99))
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, promFloat(s.Sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, s.Count)
			}
		}
	})
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders a child's label set, `{a="x",b="y"}`, with a summary's
// quantile label last when quantile is set; "" when there is no label.
func promLabels(names, values []string, quantile string) string {
	if len(names) == 0 && quantile == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, values[i])
		b.WriteByte('"')
	}
	if quantile != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`quantile="`)
		b.WriteString(quantile)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonSample is one child's value in the JSON export: a counter carries
// `value`, a gauge `gauge`, a summary `summary`.
type jsonSample struct {
	Value   *uint64       `json:"value,omitempty"`
	Gauge   *int64        `json:"gauge,omitempty"`
	Summary *HistSnapshot `json:"summary,omitempty"`
}

// jsonSeries is one labeled child in the JSON export.
type jsonSeries struct {
	Labels map[string]string `json:"labels"`
	jsonSample
}

// jsonMetric is one metric family in the JSON export: a plain family's one
// child inline, a labeled family's children under `series`.
type jsonMetric struct {
	Type string `json:"type"`
	Help string `json:"help,omitempty"`
	jsonSample
	Series []jsonSeries `json:"series,omitempty"`
}

func sampleOf(inst any) jsonSample {
	switch x := inst.(type) {
	case *Counter:
		v := x.Value()
		return jsonSample{Value: &v}
	case *Gauge:
		v := x.Value()
		return jsonSample{Gauge: &v}
	case *Histogram:
		s := x.Snapshot()
		return jsonSample{Summary: &s}
	}
	return jsonSample{}
}

// WriteJSON writes the registry as a JSON object keyed by metric name.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]jsonMetric)
	if r != nil {
		r.snapshot(func(f *family, children []*child) {
			m := jsonMetric{Type: f.kind, Help: f.help}
			for _, ch := range children {
				if len(f.labels) == 0 {
					m.jsonSample = sampleOf(ch.inst)
					continue
				}
				labels := make(map[string]string, len(f.labels))
				for i, n := range f.labels {
					labels[n] = ch.values[i]
				}
				m.Series = append(m.Series, jsonSeries{Labels: labels, jsonSample: sampleOf(ch.inst)})
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
		serveEventsSSE(w, r, bus, since, 64)
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

func serveEventsSSE(w http.ResponseWriter, r *http.Request, bus *Bus, since uint64, buf int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported; use ?format=json", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	// Subscribe before replaying the backlog so no event can fall between
	// the two; the seq guard below drops the overlap. buf is small (64) —
	// at 10k SSE clients per-subscriber memory dominates — because a client
	// that overruns it just re-syncs from the ring.
	sub, cancel := bus.subscribe(buf)
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
	// replay writes the ring's events after last: the backlog, or what the
	// subscription dropped — known from its lag flag, since a scoped
	// stream's Seqs have gaps. It covers an event already taken from the
	// channel, which writeEvent then skips, so nothing is duplicated or lost
	// (unless the drops outran the ring window: then the stream resumes at
	// the oldest retained event, like any ?since replay).
	replay := func() bool {
		for _, ev := range bus.Since(last) {
			if !writeEvent(ev) {
				return false
			}
		}
		return true
	}
	if !replay() {
		return
	}
	// A drop may land just after its reader last looked at the flag; if the
	// bus goes quiet then, the re-sync ticker bounds the gap: at worst one
	// period after quiescence the client is whole again.
	resync := time.NewTicker(sseResyncInterval)
	defer resync.Stop()
	for {
		select {
		case ev := <-sub.ch:
			if (sub.lagged.Swap(false) && !replay()) || !writeEvent(ev) {
				return
			}
		case <-resync.C:
			if sub.lagged.Swap(false) && !replay() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// sseResyncInterval is how often an idle SSE stream checks its subscription
// for dropped events.
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
