package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/obs"
	"countrymon/internal/portal"
	"countrymon/internal/serve"
	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

// serve_mixed is the read side under a live campaign: closed-loop readers
// with no think time replay a seeded mix of request classes against a
// two-country router (and the portal's token-gated mount) while one writer
// seals the next round in every store each time the readers finish another
// 20 000 requests, and eight parked SSE subscribers receive every seal. One
// op is one request.
var serveMixed = &workload{
	name:         "serve_mixed",
	why:          "readers replay hit, live-edge, cold, outages and portal requests while a writer seals rounds and 8 SSE subscribers listen: cache, render, detection memo and fan-out each own a class; no write layer",
	opsPerSecond: 120000,
	sizeOf:       func(ops int) int { return max(ops/serveSealEvery, 2) * serveSealEvery },
	setups:       40,
	run:          runServe,
}

// serveSealEvery is how many completed requests buy one seal. (The package
// test seals far more often, to stay short.)
var serveSealEvery = 20000

const (
	serveSubscribers = 8
	serveToken       = "bench-token"
	serveHitKeys     = 256 // week-long windows: fits the 4096-entry cache
	serveViewKeys    = 64
	serveEdgeKeys    = 16 // live-edge pollers per country
	serveOutageKeys  = 16
	serveWeek        = 7 * 24 * time.Hour
	// serveSpanEvery is how often the traced pass keeps a request span.
	serveSpanEvery = 64
)

// Request classes and their share of the mix, in percent.
const (
	classHit = iota
	classEdge
	classCold
	classOutages
	classView
	numClasses
)

var (
	classNames = [numClasses]string{"hit", "edge", "cold", "outages", "view"}
	classShare = [numClasses]int{60, 20, 10, 5, 5}
)

// serveShape is the entity budget per country (200 in all).
var serveShape = []struct {
	code, name string
	entities   int
}{
	{"UA", "Ukraine", 120},
	{"RO", "Romania", 80},
}

// synthSource is a deterministic signal generator: stable values per
// (entity, round), so repeated renders are byte-identical, with periodic
// dips and gaps so detection has something to find.
type synthSource struct{ salt int }

func (s synthSource) Sample(r int) (bgp, fbs, ips float32, missing bool) {
	if (r+s.salt)%53 == 7 {
		return 0, 0, 0, true
	}
	base := float32(20 + s.salt%30)
	dip := float32(1)
	if (r+s.salt*3)%97 < 5 {
		dip = 0.3
	}
	return base * dip, (base - 4) * dip, base * 40 * dip, false
}

func (s synthSource) IPSValidMonth(month int) bool { return (month+s.salt)%5 != 4 }

// serveStack is the serving side as deployed: per-country stores behind a
// router, the default country also mounted under the portal.
type serveStack struct {
	tl     *timeline.Timeline
	codes  []string
	stores []*serve.Store
	keys   [][]string // entity keys per country
	router *serve.Router
	portal *portal.Portal
	reg    *obs.Registry
	bus    *obs.Bus
	// pinned is the first round past the history the immutable classes draw
	// their windows from: sealed in set-up, in months that are complete.
	pinned int
}

func newServeStack(seed uint64) (*serveStack, error) {
	s := &serveStack{tl: timeline.Default(), router: serve.NewRouter(), reg: obs.NewRegistry(), bus: obs.NewBus(1024)}
	rounds := s.tl.NumRounds()
	sealed := rounds / 2
	lo, _ := s.tl.MonthRounds(s.tl.MonthOfRound(sealed - 1))
	s.pinned = lo
	asCfg := signals.ASConfig()
	n := 0
	for _, shape := range serveShape {
		store := serve.NewStore(s.tl)
		var keys []string
		for i := 0; i < shape.entities; i++ {
			code := "as" + strconv.Itoa(64512+n)
			src := synthSource{salt: int(hash2(seed, uint64(n)) % 1000)}
			e, err := store.Register("asn", code, src, serve.DetectWith(asCfg))
			if err != nil {
				return nil, err
			}
			keys = append(keys, e.Key)
			n++
		}
		if err := store.AdvanceTo(sealed); err != nil {
			return nil, err
		}
		srv := serve.NewServer(store)
		srv.Observe(s.reg, s.bus)
		if err := s.router.Add(shape.code, shape.name, srv); err != nil {
			return nil, err
		}
		s.codes = append(s.codes, shape.code)
		s.stores = append(s.stores, store)
		s.keys = append(s.keys, keys)
	}
	// The portal needs a dataset store for its raw exports; the serve mount
	// never touches it.
	s.portal = portal.New(dataset.NewStore(s.tl, nil), []byte("bench"), serveToken)
	s.portal.AttachServe(s.router.Server(s.codes[0]))
	return s, nil
}

// window returns the from/until query of a week-long window starting at
// round a.
func (s *serveStack) window(a int) string {
	from := s.tl.Time(a)
	return "&from=" + strconv.FormatInt(from.Unix(), 10) + "&until=" + strconv.FormatInt(from.Add(serveWeek).Unix(), 10)
}

func (s *serveStack) seriesPath(country int) string {
	return "/v1/countries/" + s.codes[country] + "/series"
}

// refWriter is the readers' ResponseWriter. Serve writes a response as one
// slice it keeps (a cache entry's body), so the writer holds a reference
// instead of copying: per-request cost stays that of the handler.
type refWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *refWriter) Header() http.Header { return w.h }
func (w *refWriter) WriteHeader(s int)   { w.status = s }
func (w *refWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = p
	return len(p), nil
}
func (w *refWriter) reset() {
	clear(w.h)
	w.status, w.body = 0, nil
}

// pinnedKey is an immutable query a reader repeats: every time it is served
// the bytes and the ETag must be the ones first seen.
type pinnedKey struct {
	req  *http.Request
	etag string
	body []byte
	seen int
}

// reader is one closed-loop client.
type reader struct {
	st     *serveStack
	rng    rng
	w      *refWriter
	hit    []pinnedKey
	view   []pinnedKey
	outage [][]*http.Request // per country
	edge   *http.Request     // reused; the query is rewritten per request
	cold   *http.Request

	lat   []uint32 // ns per request, in order
	class []uint8
	marks []timing // wall and process-CPU offsets at each segment boundary
	bytes uint64
	ck    checker
	spans []span // traced pass only
}

func newReader(st *serveStack, seed uint64, id, n int) *reader {
	r := &reader{st: st, rng: rng{s: hash2(seed, uint64(id)+0x5e)}, w: &refWriter{h: make(http.Header, 4)},
		lat: make([]uint32, 0, n), class: make([]uint8, 0, n),
		edge: newGET("", ""), cold: newGET("", "")}
	// The repeated keys are drawn from the seed: an entity and a week-long
	// window in pinned history. The view keys go through the portal, which
	// mounts the default country.
	keyRng := rng{s: hash2(seed, 0x4e1)}
	query := func(c int) string {
		return "entity=" + st.keys[c][keyRng.intn(len(st.keys[c]))] + st.window(keyRng.intn(st.pinned-84))
	}
	for i := 0; i < serveHitKeys; i++ {
		c := keyRng.intn(len(st.codes))
		r.hit = append(r.hit, pinnedKey{req: newGET(st.seriesPath(c), query(c))})
	}
	for i := 0; i < serveViewKeys; i++ {
		r.view = append(r.view, pinnedKey{req: newGET("/data/v1/series", query(0)+"&token="+serveToken)})
	}
	for c := range st.codes {
		var reqs []*http.Request
		for i := 0; i < serveOutageKeys; i++ {
			reqs = append(reqs, newGET("/v1/countries/"+st.codes[c]+"/outages", "entity="+st.keys[c][i]))
		}
		r.outage = append(r.outage, reqs)
	}
	return r
}

// run issues n requests. ready is signalled every serveSealEvery requests
// across all readers (done counts them), which is what paces the writer.
func (r *reader) run(n int, done *atomic.Int64, ready chan<- struct{}, traceEpoch time.Time) {
	st := r.st
	start := now()
	r.marks = append(r.marks, timing{})
	var qbuf []byte
	for i := 0; i < n; i++ {
		roll := r.rng.intn(100)
		class := 0
		for roll >= classShare[class] {
			roll -= classShare[class]
			class++
		}
		var (
			h      http.Handler = st.router
			req    *http.Request
			pinned *pinnedKey
			wm     = -1
		)
		switch class {
		case classHit:
			pinned = &r.hit[r.rng.intn(len(r.hit))]
			req = pinned.req
		case classView:
			pinned = &r.view[r.rng.intn(len(r.view))]
			req, h = pinned.req, st.portal
		case classEdge:
			c := r.rng.intn(len(st.codes))
			wm = st.stores[c].Watermark()
			qbuf = append(qbuf[:0], "entity="...)
			qbuf = append(qbuf, st.keys[c][r.rng.intn(serveEdgeKeys)]...)
			qbuf = append(qbuf, "&since="...)
			qbuf = strconv.AppendInt(qbuf, int64(wm-12), 10)
			req = r.edge
			req.URL.Path, req.URL.RawQuery = st.seriesPath(c), string(qbuf)
		case classCold:
			c := r.rng.intn(len(st.codes))
			qbuf = append(qbuf[:0], "entity="...)
			qbuf = append(qbuf, st.keys[c][r.rng.intn(len(st.keys[c]))]...)
			qbuf = append(qbuf, st.window(r.rng.intn(st.pinned-84))...)
			qbuf = append(qbuf, "&limit="...)
			qbuf = strconv.AppendInt(qbuf, int64(16+r.rng.intn(64)), 10)
			qbuf = append(qbuf, "&offset="...)
			qbuf = strconv.AppendInt(qbuf, int64(r.rng.intn(8)), 10)
			req = r.cold
			req.URL.Path, req.URL.RawQuery = st.seriesPath(c), string(qbuf)
		case classOutages:
			c := r.rng.intn(len(st.codes))
			wm = st.stores[c].Watermark()
			req = r.outage[c][r.rng.intn(serveOutageKeys)]
		}

		r.w.reset()
		t0 := time.Now()
		h.ServeHTTP(r.w, req)
		dt := time.Since(t0)
		r.lat = append(r.lat, uint32(min(dt, time.Duration(1<<32-1))))
		r.class = append(r.class, uint8(class))
		r.bytes += uint64(len(r.w.body))
		if !traceEpoch.IsZero() && i%serveSpanEvery == 0 {
			s0 := int64(t0.Sub(traceEpoch))
			r.spans = append(r.spans, span{Name: "serve.request." + classNames[class], Start: s0, End: s0 + int64(dt), Parent: -1, Op: i})
		}

		r.verify(i, class, pinned, wm)
		if i+1 == len(r.marks)*n/segments {
			r.marks = append(r.marks, now().since(start))
		}
		if done.Add(1)%int64(serveSealEvery) == 0 {
			ready <- struct{}{}
		}
	}
}

// verify checks one response: never an error status; a pinned key serves
// the bytes and ETag first seen (ETag and length every time, every byte on
// every 64th sight, and every byte but the watermark field when the ETag
// moved); a live-edge body is at or past the watermark read before the
// request was sent.
func (r *reader) verify(i, class int, pinned *pinnedKey, wm int) {
	w := r.w
	if w.status >= 400 || w.status == 0 || len(w.body) == 0 {
		r.ck.failf("request %d (%s): status %d, %d bytes", i, classNames[class], w.status, len(w.body))
		return
	}
	etag := ""
	if v := w.h["Etag"]; len(v) > 0 {
		etag = v[0]
	}
	if pinned != nil {
		switch {
		case pinned.seen == 0:
			pinned.etag, pinned.body = etag, append([]byte(nil), w.body...)
		case etag != pinned.etag:
			// Evicted and rendered again: the one field that may differ is
			// the watermark the body reports (see README, "Findings").
			if !equalButWatermark(w.body, pinned.body) {
				r.ck.failf("request %d (%s): immutable key served different bytes", i, classNames[class])
			}
			pinned.etag, pinned.body = etag, append(pinned.body[:0], w.body...)
		case len(w.body) != len(pinned.body) || (pinned.seen%64 == 0 && !bytes.Equal(w.body, pinned.body)):
			r.ck.failf("request %d (%s): same ETag, different bytes", i, classNames[class])
		}
		pinned.seen++
	}
	if wm >= 0 {
		if got, ok := watermarkOf(w.body); !ok || got < wm {
			r.ck.failf("request %d (%s): body watermark %d behind %d", i, classNames[class], got, wm)
		}
	}
}

// pinnedHash is the identity of what the reader's immutable keys served,
// watermark digits left out.
func (r *reader) pinnedHash() string {
	h := sha256.New()
	for _, keys := range [][]pinnedKey{r.hit, r.view} {
		for _, k := range keys {
			i := bytes.Index(k.body, []byte(`"watermark":`))
			j := bytes.Index(k.body, []byte(`,"total":`))
			if i < 0 || j < i {
				h.Write([]byte{0})
				continue
			}
			h.Write(k.body[:i])
			h.Write(k.body[j:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// equalButWatermark reports whether two serve bodies are the same bytes
// apart from the digits of their "watermark" field.
func equalButWatermark(a, b []byte) bool {
	cut := func(body []byte) (head, tail []byte, ok bool) {
		const key = `"watermark":`
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			return nil, nil, false
		}
		j := i + len(key)
		k := j
		for k < len(body) && body[k] >= '0' && body[k] <= '9' {
			k++
		}
		return body[:j], body[k:], true
	}
	ah, at, ok1 := cut(a)
	bh, bt, ok2 := cut(b)
	return ok1 && ok2 && bytes.Equal(ah, bh) && bytes.Equal(at, bt)
}

// sseSub is one parked /v1/events subscriber: it records when each
// round_sealed event was written to it.
type sseSub struct {
	h       http.Header
	mu      sync.Mutex
	arrived []time.Time
	ready   atomic.Bool
}

func (w *sseSub) Header() http.Header { return w.h }
func (w *sseSub) WriteHeader(int)     {}
func (w *sseSub) Flush()              {}
func (w *sseSub) Write(p []byte) (int, error) {
	switch {
	case bytes.HasPrefix(p, []byte("event: round_sealed")):
		now := time.Now()
		w.mu.Lock()
		w.arrived = append(w.arrived, now)
		w.mu.Unlock()
	case bytes.HasPrefix(p, []byte("event: bench_ready")):
		w.ready.Store(true)
	}
	return len(p), nil
}

// serveRun is one pass of the workload over a fresh stack.
type serveRun struct {
	readers   []*reader
	wall      time.Duration
	mem       memDelta
	advance   []time.Duration
	publish   []time.Time
	subs      []*sseSub
	writerErr error
}

func (st *serveStack) run(seed uint64, n int, traced bool) (*serveRun, error) {
	// The n requests are dealt to the readers as evenly as they go: the
	// first n%nReaders readers issue one more, so exactly n are issued (and
	// n/serveSealEvery rounds sealed) whatever GOMAXPROCS is.
	nReaders := max(1, runtime.GOMAXPROCS(0)-1)
	share := func(i int) int {
		if i < n%nReaders {
			return n/nReaders + 1
		}
		return n / nReaders
	}
	run := &serveRun{}
	var epoch time.Time
	if traced {
		epoch = time.Now()
	}

	// Park the subscribers and wait until each is really subscribed: a
	// marker event is republished until all of them have written it.
	ctx, cancel := context.WithCancel(context.Background())
	var subWG sync.WaitGroup
	for i := 0; i < serveSubscribers; i++ {
		sub := &sseSub{h: make(http.Header, 4)}
		run.subs = append(run.subs, sub)
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			st.router.ServeHTTP(sub, newGET("/v1/events", "").WithContext(ctx))
		}()
	}
	defer func() { cancel(); subWG.Wait() }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		st.bus.Publish("bench_ready", nil)
		all := true
		for _, sub := range run.subs {
			all = all && sub.ready.Load()
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("SSE subscribers did not come up")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < nReaders; i++ {
		run.readers = append(run.readers, newReader(st, seed, i, share(i)))
	}

	// The writer seals one round in every store per token. The channel
	// holds every token the readers can produce, so a reader never waits
	// on the writer.
	ready := make(chan struct{}, n/serveSealEvery+1)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for range ready {
			t0 := time.Now()
			round := 0
			for _, store := range st.stores {
				round = store.Watermark()
				if err := store.Advance(round); err != nil && run.writerErr == nil {
					run.writerErr = err
				}
			}
			run.advance = append(run.advance, time.Since(t0)/time.Duration(len(st.stores)))
			run.publish = append(run.publish, time.Now())
			st.bus.Publish("round_sealed", map[string]any{"round": round})
		}
	}()

	var done atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	mem0 := readMem()
	start := time.Now()
	for i, r := range run.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(share(i), &done, ready, epoch)
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.mem = readMem().since(mem0)
	close(ready)
	writerWG.Wait()
	if run.writerErr != nil {
		return nil, run.writerErr
	}

	// Every subscriber must end up with every seal (the stream re-syncs
	// from the ring within a quarter second if it ever lagged).
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		all := true
		for _, sub := range run.subs {
			sub.mu.Lock()
			all = all && len(sub.arrived) >= len(run.publish)
			sub.mu.Unlock()
		}
		if all {
			break
		}
	}
	return run, nil
}

// summary folds the readers' timings: p50 and p99 are the median over
// reader-segments, throughput the sum over readers of each reader's median
// segment rate. CPU time per request is the whole process's (readers,
// writer, subscribers, collector) over a segment, divided by all requests
// the readers served in it.
func (run *serveRun) summary() opSummary {
	var p50s, p99s, cpus []float64
	sum := opSummary{}
	for _, r := range run.readers {
		n := len(r.lat)
		sum.n += n
		var rates []float64
		for s := 0; s+1 < len(r.marks); s++ {
			lo, hi := s*n/segments, (s+1)*n/segments
			seg := append([]uint32(nil), r.lat[lo:hi]...)
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
			p50s = append(p50s, float64(seg[len(seg)/2]))
			p99s = append(p99s, float64(seg[int(0.99*float64(len(seg)-1))]))
			d := r.marks[s+1]
			d.wall, d.cpu = d.wall-r.marks[s].wall, d.cpu-r.marks[s].cpu
			rates = append(rates, float64(hi-lo)/d.wall.Seconds())
			cpus = append(cpus, float64(d.cpu)/float64((hi-lo)*len(run.readers)))
		}
		sum.perSec += median(rates)
	}
	sum.p50, sum.tail, sum.cpuPerOp = time.Duration(median(p50s)), time.Duration(median(p99s)), time.Duration(median(cpus))
	return sum
}

// classP50 is the median latency of one request class, in ns.
func (run *serveRun) classP50(class int) (float64, int) {
	var ds []uint32
	for _, r := range run.readers {
		for i, c := range r.class {
			if int(c) == class {
				ds = append(ds, r.lat[i])
			}
		}
	}
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return float64(ds[len(ds)/2]), len(ds)
}

// check folds the pass's correctness findings into ck.
func (run *serveRun) check(ck *checker, wantSeals int) {
	for _, r := range run.readers {
		ck.failed += r.ck.failed
		ck.notes = append(ck.notes, r.ck.notes...)
	}
	ck.check(len(run.publish) == wantSeals, "writer sealed %d rounds, want %d", len(run.publish), wantSeals)
	for i, sub := range run.subs {
		sub.mu.Lock()
		ck.check(len(sub.arrived) == len(run.publish), "subscriber %d received %d of %d seals", i, len(sub.arrived), len(run.publish))
		sub.mu.Unlock()
	}
}

// sseLag is, per seal, publish → written to the last of the subscribers.
func (run *serveRun) sseLag() []time.Duration {
	var out []time.Duration
	for k, at := range run.publish {
		var worst time.Duration
		for _, sub := range run.subs {
			sub.mu.Lock()
			if k < len(sub.arrived) {
				worst = max(worst, sub.arrived[k].Sub(at))
			}
			sub.mu.Unlock()
		}
		out = append(out, worst)
	}
	return out
}

func runServe(cfg runConfig, w *workload, n int) (*runResult, error) {
	ck := &checker{}
	ms := newMetricSet()
	res := &runResult{Hashes: map[string]string{}}
	reps := w.setups
	if cfg.trace {
		n, reps = w.sizeOf(n/2), 1
	}
	stack, setups, err := repeatSetup(reps, cfg.scratch,
		func(string) (*serveStack, error) { return newServeStack(cfg.seed) },
		func(*serveStack) {})
	if err != nil {
		return nil, err
	}
	run, err := stack.run(cfg.seed, n, false)
	if err != nil {
		return nil, err
	}
	run.check(ck, n/serveSealEvery)
	sum := run.summary()
	res.Done, res.Attempted = sum.n, sum.n
	res.Hashes["watermark"] = strconv.Itoa(stack.stores[0].Watermark())
	res.Hashes["pinned"] = run.readers[0].pinnedHash()

	if !cfg.trace {
		endToEndMetrics(ms, setups, sum.cpuPerOp, run.mem, float64(sum.n), sum.n, peakRSSMiB())
		return res.finish(ms, ck, false)
	}

	// Traced run: the same request sequence against a fresh stack, every
	// 64th request kept as a span, the writer's seals as spans, and then a
	// stepped seal → first render → repeat hit loop.
	stack2, err := newServeStack(cfg.seed)
	if err != nil {
		return nil, err
	}
	traced, err := stack2.run(cfg.seed, n, true)
	if err != nil {
		return nil, err
	}
	traced.check(ck, n/serveSealEvery)
	tsum := traced.summary()
	ck.check(stack2.stores[0].Watermark() == stack.stores[0].Watermark(),
		"traced pass ended at watermark %d, untraced at %d", stack2.stores[0].Watermark(), stack.stores[0].Watermark())

	tr := newTracer()
	for _, r := range traced.readers {
		tr.spans = append(tr.spans, r.spans...)
	}
	sum.wallMetrics(ms)
	hitNs, hits := traced.classP50(classHit)
	ms.set("serve.hit_ns", hitNs, hits)
	for class, metric := range map[int]string{classEdge: "serve.edge_us", classCold: "serve.render_us",
		classOutages: "serve.outages_us", classView: "portal.view_us"} {
		v, k := traced.classP50(class)
		ms.set(metric, v/1e3, k)
	}
	ms.set("serve.advance_us", us(medianDur(traced.advance)), len(traced.advance))
	lag := traced.sseLag()
	ms.set("serve.sse_lag_us", us(medianDur(lag)), len(lag))
	hitsC := stack2.reg.Counter("serve_cache_hits_total", "").Value()
	missC := stack2.reg.Counter("serve_cache_misses_total", "").Value()
	ms.set("serve.cache_hit_ratio", float64(hitsC)/float64(hitsC+missC), int(hitsC+missC))
	var nbytes uint64
	var inHandler time.Duration
	for _, r := range traced.readers {
		nbytes += r.bytes
		for _, d := range r.lat {
			inHandler += time.Duration(d)
		}
	}
	ms.set("serve.bytes_per_req", float64(nbytes)/float64(tsum.n), tsum.n)
	ms.set("obs.bus_dropped", float64(stack2.bus.Dropped()), 1)
	// How much of the readers' wall time is inside ServeHTTP; the rest is
	// the generator drawing and checking requests.
	ms.set("bench.attributed_share", float64(inHandler)/(float64(traced.wall)*float64(len(traced.readers))), tsum.n)
	ms.set("bench.trace_overhead_ratio", float64(tsum.p50)/float64(sum.p50), tsum.n)

	serveStepped(ms, tr, stack2, ck)
	commonLayerMetrics(ms)
	res.Spans = tr.spans
	return res.finish(ms, ck, true)
}

// serveStepped seals a round and then fetches that round's live edge twice,
// the way the round workloads do after every Step: the first fetch renders,
// the repeat is a cache hit.
func serveStepped(ms *metricSet, tr *tracer, st *serveStack, ck *checker) {
	const steps = 64
	w1, w2 := newRespWriter(), newRespWriter()
	for k := 0; k < steps; k++ {
		store := st.stores[0]
		wm := store.Watermark()
		tr.do("serve.advance", -1, k, func() { _ = store.Advance(wm) })
		req := newGET(st.seriesPath(0), "entity="+st.keys[0][k%len(st.keys[0])]+"&since="+strconv.Itoa(wm-edgeRounds+1))
		tr.do("serve.first_render", -1, k, func() { get(st.router, w1, req) })
		tr.do("serve.first_hit", -1, k, func() { get(st.router, w2, req) })
		got, ok := watermarkOf(w1.body)
		ck.check(ok && got == wm+1 && bytes.Equal(w1.body, w2.body), "stepped seal %d: served watermark %d, want %d", k, got, wm+1)
	}
	setMedianUS(ms, tr, "serve.first_render_us", "serve.first_render")
	hit := tr.durations("serve.first_hit")
	ms.set("serve.first_hit_ns", float64(medianDur(hit)), len(hit))
}
