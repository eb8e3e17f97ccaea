package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"countrymon/internal/obs"
	"countrymon/internal/signals"
)

func benchStore(b *testing.B, entities, sealed int) *Store {
	b.Helper()
	st := NewStore(testTimeline())
	for i := 0; i < entities; i++ {
		if _, err := st.Register("asn", "as"+string(rune('a'+i%26))+string(rune('a'+i/26)), patternSource{i}, DetectWith(signals.ASConfig())); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.AdvanceTo(sealed); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkServeCachedQuery measures the hot read path: a query whose
// rendered bytes are already cached. This is the headline the bench gate
// tracks; the paired allocs_per_op must stay 0 (TestCachedQueryZeroAlloc
// enforces it hard, since the gate treats a 0 baseline as no-signal).
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

// BenchmarkServeRenderSeries measures the miss path: parse, window
// selection, columnar render, cache insert. The ratio against
// BenchmarkServeCachedQuery is what the response cache buys.
func BenchmarkServeRenderSeries(b *testing.B) {
	s := NewServer(benchStore(b, 50, 40))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _, _, _ := s.renderSeries("entity=asn/asaa&limit=40")
		if body == nil {
			b.Fatal("render failed")
		}
	}
}

// BenchmarkServeAdvance measures publishing one round into a store with many
// registered entities — the per-round cost the Monitor pays on the campaign
// goroutine.
func BenchmarkServeAdvance(b *testing.B) {
	st := benchStore(b, 200, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Advance(40); err != nil { // idempotent re-publish
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds_per_sec_serve")
}
