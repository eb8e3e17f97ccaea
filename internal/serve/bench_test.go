package serve

import (
	"bytes"
	"strconv"
	"testing"

	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

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

// BenchmarkServeRenderSeries measures the miss path at the shape of the
// benchmark's cold readers: query lookup, window selection, the columnar
// render of a pinned 84-row week into a reused scratch buffer, and the cache
// entry. The entity is a dipSource on the paper's timeline, half of it
// sealed: runs of equal cells between dips, so the render takes the repeat
// path as a real series does.
func BenchmarkServeRenderSeries(b *testing.B) {
	tl := timeline.Default()
	half := tl.NumRounds() / 2
	st := benchStoreOn(b, tl, 50, half, func(i int) Source { return dipSource{i * 7} })
	s := NewServer(st)
	// A week inside the last month complete at the watermark.
	lo, _ := tl.MonthRounds(tl.MonthOfRound(half) - 1)
	from, until := tl.Time(lo+100), tl.Time(lo+183)
	q := "entity=asn/asaa&from=" + strconv.FormatInt(from.Unix(), 10) + "&until=" + strconv.FormatInt(until.Unix(), 10)
	if body, immutable, _, _ := s.renderSeries(nil, q); !immutable || !bytes.Contains(body, []byte(`"count":84,`)) {
		b.Fatalf("fixture: %s is not a pinned 84-row week: %.120s", q, body)
	}
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
