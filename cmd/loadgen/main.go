// Command loadgen drives the serving read path (internal/serve) with
// thousands of concurrent simulated clients and reports latency
// percentiles. It answers the capacity question the serving rework was
// built for: can one process hold ~10k mixed poll/SSE/range-query clients
// with single-digit-millisecond tail latency?
//
// The generator is fully in-process: requests go straight into the
// server's ServeHTTP (no sockets, no TLS), so the numbers isolate the
// serving code — cache lookups, render path, SSE fan-out — from kernel
// networking. A background campaign thread keeps the store live while the
// clients hammer it: rounds advance (bumping the store epoch and
// invalidating mutable cache entries) and events are published on the bus
// (feeding every SSE subscriber), exactly the write load a monitor under
// active measurement produces.
//
// Client mix (weights via -mix poll:range:sse, default 6:3:1):
//
//	poll   repeat GET /v1/series?entity=E&since=W — the live-edge path a
//	       dashboard polls; cache-hit except right after a round lands
//	range  GET /v1/series with random historical from/until windows plus
//	       pagination — mostly immutable cache hits across clients
//	sse    GET /v1/events held open for the whole run; the recorded
//	       latency is time-to-first-byte
//
// Output is one `go test -bench`-shaped line per run plus a summary, so
// `loadgen | benchjson` folds the numbers into the benchmark baseline:
//
//	BenchmarkLoadgen/clients=10000 <reqs> <ns> ns/op <p50> p50_ms <p95> p95_ms <p99> p99_ms <cpu> cpu_us_per_req <rps> req_per_sec
//
// With -max-cpu-us M the run fails (exit 1) when process user+system CPU per
// completed non-SSE request exceeds M µs — the CI smoke gate. Percentiles are
// printed, not gated: closed-loop goroutines on a small VM time its scheduler.
//
// Usage:
//
//	loadgen [-clients 10000] [-duration 10s] [-entities 200] [-rounds 360]
//	        [-mix 6:3:1] [-advance-every 250ms] [-max-cpu-us 0] [-seed 1]
//	        [-countries UA,RO,PL]
//
// With -countries the stack is a multi-country serve.Router: the entity
// budget splits across per-country stores and every request goes through the
// country-scoped /v1/countries/{cc}/... routes, measuring the dispatch
// overhead a coordinated campaign's API adds.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"countrymon/internal/obs"
	"countrymon/internal/serve"
	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

func main() {
	clients := flag.Int("clients", 10000, "concurrent simulated clients")
	duration := flag.Duration("duration", 10*time.Second, "run length")
	entities := flag.Int("entities", 200, "entities registered in the store")
	rounds := flag.Int("rounds", 360, "timeline rounds (sealed up to rounds/2 at start)")
	mix := flag.String("mix", "6:3:1", "poll:range:sse client weights")
	advanceEvery := flag.Duration("advance-every", 250*time.Millisecond, "background round-advance interval (0 = frozen store)")
	maxCPU := flag.Float64("max-cpu-us", 0, "fail when process CPU per completed non-SSE request exceeds this many microseconds (0 = report only)")
	seed := flag.Int64("seed", 1, "client behaviour seed")
	think := flag.Duration("think", 10*time.Millisecond, "pause between a query client's requests (0 = hammer)")
	countries := flag.String("countries", "", "spread load across these countries' /v1/countries/{cc}/ routes (e.g. UA,RO,PL; empty = single unprefixed store)")
	flag.Parse()

	wPoll, wRange, wSSE, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	handler, stores, targets, prefixes, bus := buildStack(parseCountries(*countries), *entities, *rounds)

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	// Background campaign: advance every store's live edge and publish bus
	// events (one shared bus feeds every country's SSE subscribers).
	var advWG sync.WaitGroup
	if *advanceEvery > 0 {
		advWG.Add(1)
		go func() {
			defer advWG.Done()
			tick := time.NewTicker(*advanceEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					sealed := false
					for _, store := range stores {
						if wm := store.Watermark(); wm < *rounds {
							_ = store.Advance(wm)
							bus.Publish("round_sealed", map[string]any{"round": wm})
							sealed = true
						}
					}
					if !sealed {
						bus.Publish("heartbeat", nil)
					}
				}
			}
		}()
	}

	results := make([]clientResult, *clients)
	cpu0 := processCPU()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		kind := pickKind(i, wPoll, wRange, wSSE)
		wg.Add(1)
		go func(i int, kind string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(i)))
			switch kind {
			case "sse":
				results[i] = runSSEClient(ctx, handler, prefixes[i%len(prefixes)])
			case "range":
				results[i] = runQueryClient(ctx, handler, rng, targets, *rounds, true, *think)
			default:
				results[i] = runQueryClient(ctx, handler, rng, targets, *rounds, false, *think)
			}
			results[i].kind = kind
		}(i, kind)
	}
	start := time.Now()
	wg.Wait()
	cancel()
	advWG.Wait()
	elapsed := time.Since(start)

	report(results, elapsed, processCPU()-cpu0, *clients, *maxCPU)
}

// processCPU is the user+system CPU time this process has consumed so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad who or pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// target is one queryable entity plus the route prefix it is mounted under
// ("" for the legacy unprefixed routes, "/v1/countries/CC" otherwise).
type target struct{ prefix, key string }

// parseCountries splits the -countries list; nil means the single-store
// legacy layout.
func parseCountries(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, c := range strings.Split(s, ",") {
		if c = strings.ToUpper(strings.TrimSpace(c)); c != "" {
			out = append(out, c)
		}
	}
	return out
}

// buildStack assembles the serving stack under load: per country (or once,
// with no countries) a store over a 12h-round timeline with deterministic
// per-entity signal patterns, half sealed (immutable history) and half left
// for the live advancer. With countries the stores mount on a serve.Router
// and the entity budget splits across them, so the clients exercise the
// country-scoped routes exactly as a multi-country dashboard would.
func buildStack(codes []string, entities, rounds int) (http.Handler, []*serve.Store, []target, []string, *obs.Bus) {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	bus := obs.NewBus(1024)
	reg := obs.NewRegistry()

	build := func(n, salt0 int) (*serve.Server, *serve.Store) {
		tl := timeline.New(start, start.Add(time.Duration(rounds-1)*12*time.Hour), 12*time.Hour)
		store := serve.NewStore(tl)
		for i := 0; i < n; i++ {
			code := "as" + strconv.Itoa(64512+salt0+i)
			_, err := store.Register("asn", code, synthSource{salt: salt0 + i}, serve.DetectWith(signals.ASConfig()))
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: register %s: %v\n", code, err)
				os.Exit(2)
			}
		}
		if err := store.AdvanceTo(rounds / 2); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: seal: %v\n", err)
			os.Exit(2)
		}
		srv := serve.NewServer(store)
		srv.Observe(reg, bus)
		return srv, store
	}

	if len(codes) == 0 {
		srv, store := build(entities, 0)
		var targets []target
		for _, e := range store.Entities() {
			targets = append(targets, target{prefix: "/v1", key: e.Key})
		}
		return srv, []*serve.Store{store}, targets, []string{"/v1"}, bus
	}

	router := serve.NewRouter()
	var (
		stores   []*serve.Store
		targets  []target
		prefixes []string
		salt     int
	)
	for i, code := range codes {
		n := entities / len(codes)
		if i < entities%len(codes) {
			n++
		}
		if n == 0 {
			n = 1
		}
		srv, store := build(n, salt)
		salt += n
		if err := router.Add(code, code, srv); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: mount %s: %v\n", code, err)
			os.Exit(2)
		}
		prefix := "/v1/countries/" + code
		prefixes = append(prefixes, prefix)
		stores = append(stores, store)
		for _, e := range store.Entities() {
			targets = append(targets, target{prefix: prefix, key: e.Key})
		}
	}
	return router, stores, targets, prefixes, bus
}

// synthSource is a deterministic signal generator: stable values per
// (entity, round) so repeated renders are byte-identical, with an outage-ish
// dip so detection has something to chew on.
type synthSource struct{ salt int }

func (s synthSource) Sample(r int) (bgp, fbs, ips float32, missing bool) {
	if (r+s.salt)%53 == 7 {
		return 0, 0, 0, true
	}
	base := float32(20 + (s.salt % 30))
	dip := float32(1)
	if d := (r + s.salt*3) % 97; d < 5 {
		dip = 0.3
	}
	return base * dip, (base - 4) * dip, base * 40 * dip, false
}

func (s synthSource) IPSValidMonth(month int) bool { return (month+s.salt)%5 != 4 }

type clientResult struct {
	kind      string
	latencies []time.Duration
	requests  int
	errors    int
	// stalled marks an SSE client that saw no event before shutdown —
	// expected for late joiners when the run ends, so reported rather
	// than fatal.
	stalled bool
}

// runQueryClient loops poll- or range-shaped GETs until ctx expires, each
// against a random target's mount point (legacy or country-prefixed).
func runQueryClient(ctx context.Context, h http.Handler, rng *rand.Rand, targets []target, rounds int, ranged bool, think time.Duration) clientResult {
	var res clientResult
	w := &nullWriter{h: make(http.Header, 4)}
	for ctx.Err() == nil {
		tg := targets[rng.Intn(len(targets))]
		var url string
		if ranged {
			lo := rng.Intn(rounds / 2)
			span := 1 + rng.Intn(rounds/4)
			url = tg.prefix + "/series?entity=" + tg.key +
				"&limit=" + strconv.Itoa(64+rng.Intn(192)) +
				"&offset=" + strconv.Itoa(rng.Intn(span)) +
				"&since=" + strconv.Itoa(lo)
		} else if rng.Intn(8) == 0 {
			url = tg.prefix + "/outages?entity=" + tg.key
		} else {
			url = tg.prefix + "/series?entity=" + tg.key + "&since=" + strconv.Itoa(rounds/2-1)
		}
		req := httptest.NewRequest("GET", url, nil)
		w.reset()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		res.latencies = append(res.latencies, time.Since(t0))
		res.requests++
		if w.status >= 400 {
			res.errors++
		}
		if think > 0 {
			time.Sleep(think)
		}
	}
	return res
}

// runSSEClient opens one /v1/events stream for the whole run and records
// time-to-first-byte. The stream is served on the client's goroutine (the
// handler blocks until ctx cancels), so each SSE client costs exactly what
// a real connection costs the server: one goroutine plus one subscriber
// buffer.
func runSSEClient(ctx context.Context, h http.Handler, prefix string) clientResult {
	var res clientResult
	w := newSSEWriter()
	req := httptest.NewRequest("GET", prefix+"/events", nil).WithContext(ctx)
	t0 := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, req)
	}()
	select {
	case <-w.first:
		res.latencies = append(res.latencies, time.Since(t0))
		res.requests = 1
	case <-ctx.Done():
		res.stalled = true
	}
	<-done
	return res
}

// nullWriter is a reusable allocation-light ResponseWriter for the query
// clients: headers land in a cleared map, bodies are counted and dropped.
type nullWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(s int)   { w.status = s }
func (w *nullWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = 200
	}
	w.n += len(p)
	return len(p), nil
}
func (w *nullWriter) reset() {
	clear(w.h)
	w.status, w.n = 0, 0
}

// sseWriter additionally implements http.Flusher (the SSE handler requires
// it) and signals the first body byte for TTFB measurement.
type sseWriter struct {
	nullWriter
	first     chan struct{}
	firstOnce sync.Once
}

func newSSEWriter() *sseWriter {
	return &sseWriter{nullWriter: nullWriter{h: make(http.Header, 4)}, first: make(chan struct{})}
}

func (w *sseWriter) Write(p []byte) (int, error) {
	w.firstOnce.Do(func() { close(w.first) })
	return w.nullWriter.Write(p)
}

func (w *sseWriter) Flush() {}

func parseMix(s string) (poll, rng, sse int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("mix must be poll:range:sse, got %q", s)
	}
	var vals [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return 0, 0, 0, fmt.Errorf("bad mix weight %q", p)
		}
		vals[i] = v
	}
	if vals[0]+vals[1]+vals[2] == 0 {
		return 0, 0, 0, fmt.Errorf("mix weights sum to zero")
	}
	return vals[0], vals[1], vals[2], nil
}

// pickKind deals client i its role, interleaving kinds evenly through the
// client index space so every prefix of clients keeps the requested mix.
func pickKind(i, wPoll, wRange, wSSE int) string {
	total := wPoll + wRange + wSSE
	switch m := i % total; {
	case m < wPoll:
		return "poll"
	case m < wPoll+wRange:
		return "range"
	default:
		return "sse"
	}
}

func report(results []clientResult, elapsed, cpu time.Duration, clients int, maxCPU float64) {
	var query, sse []time.Duration
	reqs, errs, sseClients, stalled := 0, 0, 0, 0
	for _, r := range results {
		reqs += r.requests
		errs += r.errors
		if r.stalled {
			stalled++
		}
		if r.kind == "sse" {
			sseClients++
			sse = append(sse, r.latencies...)
		} else {
			query = append(query, r.latencies...)
		}
	}
	p50, p95, p99 := percentiles(query)
	sp50, _, sp99 := percentiles(sse)
	rps := float64(reqs) / elapsed.Seconds()
	nsPerOp := 0.0
	if reqs > 0 {
		nsPerOp = float64(elapsed.Nanoseconds()) / float64(reqs)
	}
	cpuPerReq := float64(cpu) / float64(time.Microsecond) / float64(max(len(query), 1))

	fmt.Printf("BenchmarkLoadgen/clients=%d \t%d\t%.0f ns/op\t%.3f p50_ms\t%.3f p95_ms\t%.3f p99_ms\t%.2f cpu_us_per_req\t%.0f req_per_sec\n",
		clients, reqs, nsPerOp, ms(p50), ms(p95), ms(p99), cpuPerReq, rps)
	fmt.Fprintf(os.Stderr, "loadgen: %d clients (%d sse, %d stalled), %d requests in %v (%.0f req/s), %d errors\n",
		clients, sseClients, stalled, reqs, elapsed.Round(time.Millisecond), rps, errs)
	fmt.Fprintf(os.Stderr, "loadgen: query latency p50=%.3fms p95=%.3fms p99=%.3fms; sse ttfb p50=%.3fms p99=%.3fms; cpu %.2fus per query\n",
		ms(p50), ms(p95), ms(p99), ms(sp50), ms(sp99), cpuPerReq)

	if errs > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL — %d request errors\n", errs)
		os.Exit(1)
	}
	if maxCPU > 0 && cpuPerReq > maxCPU {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL — %.2fus CPU per query (%d queries) exceeds bound %.2fus\n", cpuPerReq, len(query), maxCPU)
		os.Exit(1)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func percentiles(lat []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return at(0.50), at(0.95), at(0.99)
}
