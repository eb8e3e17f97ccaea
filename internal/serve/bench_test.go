package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"countrymon/internal/obs"
	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

func benchStore(b *testing.B, entities, sealed int) *Store {
	b.Helper()
	return benchStoreOn(b, testTimeline(), entities, sealed, func(i int) Source { return patternSource{i} })
}

func benchStoreOn(b *testing.B, tl *timeline.Timeline, entities, sealed int, src func(i int) Source) *Store {
	b.Helper()
	st := NewStore(tl)
	for i := 0; i < entities; i++ {
		if _, err := st.Register("asn", "as"+string(rune('a'+i%26))+string(rune('a'+i/26)), src(i), DetectWith(signals.ASConfig())); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.AdvanceTo(sealed); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkServeCachedQuery measures the hot read path: a query whose
// rendered bytes are already cached — the repo benchmark's serve.hit_ns,
// without the HTTP stack around it. allocs/op must stay 0, which
// TestCachedQueryZeroAlloc enforces.
func BenchmarkServeCachedQuery(b *testing.B) {
	s := NewServer(benchStore(b, 50, 40))
	s.Observe(obs.NewRegistry(), obs.NewBus(16))
	req := httptest.NewRequest("GET", "/v1/series?entity=asn/asaa&limit=40", nil)
	w := &reusableWriter{h: make(http.Header)}
	handleSeries := s.routes["/v1/series"]
	handleSeries(w, req)
	if w.n == 0 {
		b.Fatal("warmup request served no bytes")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		handleSeries(w, req)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req_per_sec")
}

// BenchmarkServeRenderSeries measures the miss path: query lookup, window
// selection, columnar render into a reused scratch buffer, cache entry. The
// ratio against BenchmarkServeCachedQuery is what the response cache buys.
func BenchmarkServeRenderSeries(b *testing.B) {
	s := NewServer(benchStore(b, 50, 40))
	const q = "entity=asn/asaa&limit=40"
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, immutable, _, _ := s.renderSeries(scratch[:0], q)
		if body == nil {
			b.Fatal("render failed")
		}
		entrySink = newEntry(body, q, immutable, 0)
		scratch = body
	}
}

// entrySink keeps BenchmarkServeRenderSeries' entries reachable, so the
// compiler cannot drop or stack-allocate what a miss allocates.
var entrySink *cacheEntry

// BenchmarkServeAdvance measures sealing one fresh round into a store with
// many registered entities — the per-round cost the Monitor pays on the
// campaign goroutine — over the paper's timeline, so the monthly column
// growth is in the number. Past the last round it starts a fresh store, off
// the clock.
func BenchmarkServeAdvance(b *testing.B) {
	tl := timeline.Default()
	src := func(i int) Source { return patternSource{i} }
	st := benchStoreOn(b, tl, 200, 0, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i, r := 0, 0; i < b.N; i, r = i+1, r+1 {
		if r == tl.NumRounds() {
			b.StopTimer()
			st, r = benchStoreOn(b, tl, 200, 0, src), 0
			b.StartTimer()
		}
		if err := st.Advance(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds_per_sec_serve")
}

// BenchmarkServeRegisterHalfSealed measures setting a store up mid-campaign:
// 200 entities registered on the paper's timeline, then half of it sealed in
// one AdvanceTo. B/op is what the columns cost for the sealed half.
func BenchmarkServeRegisterHalfSealed(b *testing.B) {
	tl := timeline.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchStoreOn(b, tl, 200, tl.NumRounds()/2, func(i int) Source { return patternSource{i} })
	}
}

// BenchmarkServeOutagesAfterSeal measures what a landed round costs the
// outage readers: seal one more round of the paper's timeline, then fetch
// /v1/outages for every entity — each a re-detection over the whole sealed
// history, since the seal invalidated every memo.
func BenchmarkServeOutagesAfterSeal(b *testing.B) {
	const entities = 50
	tl := timeline.Default()
	half := tl.NumRounds() / 2
	// dipSource, not patternSource: a level with dips flags some hundred
	// outages over the timeline, a round-to-round swing thousands.
	st := benchStoreOn(b, tl, entities, half, func(i int) Source { return dipSource{i * 7} })
	s := NewServer(st)
	queries := make([]string, entities)
	for i, e := range st.Entities() {
		queries[i] = "entity=" + e.Key
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Past the last round the re-publish is idempotent and the memos
		// hold: a benchtime that long would measure nothing.
		if err := st.Advance(half + i); err != nil {
			b.Fatal(err)
		}
		for _, q := range queries {
			if body, _, _, _ := s.renderOutages(nil, q); body == nil {
				b.Fatal("render failed")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/entities, "us/entity")
}
