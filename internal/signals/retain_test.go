package signals

import (
	"runtime"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/regional"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
)

// What a Builder keeps follows its constructor: a batch builder hands every
// series to its caller and keeps none, so an analysis that keeps only a
// detection drops the columns with it; a streaming builder keeps each
// series it builds, because Fold advances what it registered.

// TestBatchBuilderKeepsNoSeries: two calls for the same AS or region return
// two series with the same bits and their own columns, and the builder
// memoizes and registers neither.
func TestBatchBuilderKeepsNoSeries(t *testing.T) {
	_, b := fixture(t)
	rr := fRes.Regions[netmodel.Kherson]
	pairs := []struct {
		name string
		a, b *EntitySeries
	}{
		{"AS 25482", b.AS(25482), b.AS(25482)},
		{"Kherson", b.Region(rr, fCl), b.Region(rr, fCl)},
	}
	for _, p := range pairs {
		if p.a == p.b {
			t.Fatalf("%s: a batch builder returned the same series twice", p.name)
		}
		if &p.a.BGP.Month(0)[0] == &p.b.BGP.Month(0)[0] || &p.a.IPSValidMonth[0] == &p.b.IPSValidMonth[0] {
			t.Fatalf("%s: two batch series share their columns", p.name)
		}
		assertSeriesEqual(t, p.name, p.a, p.b)
	}
	if n := b.asCache.Len() + b.regionCache.Len(); n != 0 {
		t.Errorf("a batch builder memoized %d series", n)
	}
	if n := len(b.entities); n != 0 {
		t.Errorf("a batch builder registered %d series for Fold", n)
	}
}

// TestBatchSeriesIsCollectable: once its caller drops it, a batch series is
// garbage while its builder lives on.
func TestBatchSeriesIsCollectable(t *testing.T) {
	_, b := fixture(t)
	rr := fRes.Regions[netmodel.Kherson]
	collected := make(chan string, 2)
	watch := func(name string, es *EntitySeries) {
		runtime.SetFinalizer(es, func(*EntitySeries) { collected <- name })
	}
	watch("AS 25482", b.AS(25482))
	watch("Kherson", b.Region(rr, fCl))
	seen := map[string]bool{}
	for i := 0; i < 50 && len(seen) < 2; i++ {
		runtime.GC()
		select {
		case name := <-collected:
			seen[name] = true
		case <-time.After(20 * time.Millisecond):
		}
	}
	runtime.KeepAlive(b)
	for _, name := range []string{"AS 25482", "Kherson"} {
		if !seen[name] {
			t.Errorf("%s: a dropped batch series was never collected: its builder still holds it", name)
		}
	}
}

// TestStreamingBuilderKeepsSeries: a streaming builder returns the series it
// built the first time, and a fold advances that series in place.
func TestStreamingBuilderKeepsSeries(t *testing.T) {
	sc := sim.MustBuild(sim.Config{Seed: 11, Scale: 0.02})
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(59*6*time.Hour), 6*time.Hour)
	twin := dataset.NewStore(tl, sc.Space.Blocks())
	for r := range tl.NumRounds() {
		fillRound(twin, r)
	}
	cl := regional.NewClassifier(sc.Space, sc.GeoDB(), twin)
	rr := cl.ClassifyAll(regional.DefaultParams()).Regions[netmodel.Kherson]
	asn := sc.Space.ASes()[0].ASN

	st := dataset.NewStore(tl, sc.Space.Blocks())
	sb := NewStreamingBuilder(st, sc.Space, DefaultMinCoverage)
	as, region := sb.AS(asn), sb.Region(rr, cl)
	if sb.AS(asn) != as || sb.Region(rr, cl) != region {
		t.Fatal("a streaming builder built a series it already holds again")
	}
	if n := len(sb.entities); n != 2 {
		t.Fatalf("a streaming builder registered %d series for Fold, want 2", n)
	}
	for r := range 3 {
		fillRound(st, r)
		if err := sb.Fold(r); err != nil {
			t.Fatal(err)
		}
	}
	if as.IPS.At(1) == 0 {
		t.Fatal("folded rounds left the held AS series at zero")
	}
	cold := NewStreamingBuilder(st, sc.Space, DefaultMinCoverage)
	assertSeriesEqual(t, asn.String(), cold.AS(asn), as)
	assertSeriesEqual(t, "Kherson", cold.Region(rr, cl), region)
}
