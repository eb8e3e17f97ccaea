package serve

import (
	"testing"

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

// BenchmarkServeRenderSeries measures the miss path: query lookup, window
// selection, columnar render into a reused scratch buffer, cache entry.
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
// /v1/outages for every entity — each a detection memo the seal invalidated,
// resumed at the first round of the live month.
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
