package signals

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/regional"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
)

// The streaming builder's contract is byte-identical equivalence with the
// batch builder at every fold prefix: a fresh NewBuilderMinCoverage over
// the same store is the oracle, because un-scanned future rounds are
// all-zero, non-missing and full-coverage — states that contribute nothing
// to any series. These tests drive a crafted campaign round by round,
// folding each round as it lands, and diff the warm series against a cold
// rebuild at regular checkpoints.

// craftedResp ramps responsiveness through each ~30-day month (120 rounds
// at 6h) so many blocks cross the MinEverActive=3 eligibility threshold
// mid-month — with resp in 1..2 beforehand, exercising the FBS backfill.
func craftedResp(bi, r int) int {
	phase := (r + bi*17) % 120
	v := phase / 20 // 0..5 over the month
	if (bi+r)%53 == 0 {
		v = 0
	}
	return v
}

// fillRound writes one crafted round into s, the way a campaign round
// handler would: a sprinkling of vantage-outage rounds, a sprinkling of
// partial rounds below the coverage gate, occasional unrouted blocks.
func fillRound(s *dataset.Store, r int) { fillSeededRound(s, 0, r) }

// fillSeededRound is fillRound with the crafted pattern shifted by seed, so
// each seed places its vantage outages, partial rounds and unrouted blocks
// on different rounds.
func fillSeededRound(s *dataset.Store, seed, r int) {
	if (r+seed)%41 == 17 {
		s.SetMissing(r)
		return
	}
	for bi := 0; bi < s.NumBlocks(); bi++ {
		s.SetRound(bi, r, craftedResp(bi+seed, r), (bi+r+seed)%19 != 0)
	}
	if (r+seed)%29 == 3 {
		s.SetCoverage(r, 0.5)
	}
	s.SetDone(r)
}

func assertSeriesEqual(t *testing.T, label string, want, got *EntitySeries) {
	t.Helper()
	if len(want.BGP) != len(got.BGP) {
		t.Fatalf("%s: %d rounds vs %d", label, len(want.BGP), len(got.BGP))
	}
	for r := range want.BGP {
		if math.Float32bits(want.BGP[r]) != math.Float32bits(got.BGP[r]) ||
			math.Float32bits(want.FBS[r]) != math.Float32bits(got.FBS[r]) ||
			math.Float32bits(want.IPS[r]) != math.Float32bits(got.IPS[r]) ||
			want.Missing[r] != got.Missing[r] {
			t.Fatalf("%s: round %d: batch (%g, %g, %g, missing=%v) vs stream (%g, %g, %g, missing=%v)",
				label, r,
				want.BGP[r], want.FBS[r], want.IPS[r], want.Missing[r],
				got.BGP[r], got.FBS[r], got.IPS[r], got.Missing[r])
		}
	}
	for m := range want.IPSValidMonth {
		if want.IPSValidMonth[m] != got.IPSValidMonth[m] {
			t.Fatalf("%s: month %d: batch IPS-valid %v vs stream %v",
				label, m, want.IPSValidMonth[m], got.IPSValidMonth[m])
		}
	}
}

func TestStreamingFoldMatchesBatch(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		for _, resume := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%s,resume=%v", workers, resume), func(t *testing.T) {
				t.Setenv(par.EnvWorkers, workers)
				testStreamingFoldMatchesBatch(t, resume)
			})
		}
	}
}

func testStreamingFoldMatchesBatch(t *testing.T, resume bool) {
	sc := sim.MustBuild(sim.Config{Seed: 11, Scale: 0.02})
	blocks := sc.Space.Blocks()
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(479*6*time.Hour), 6*time.Hour)
	rounds := tl.NumRounds()

	// The classifier snapshots its per-block shares at construction, so
	// building it over a fully populated twin store and sharing the one
	// pointer gives both builders identical, stable share values.
	twin := dataset.NewStore(tl, blocks)
	for r := 0; r < rounds; r++ {
		fillRound(twin, r)
	}
	cl := regional.NewClassifier(sc.Space, sc.GeoDB(), twin)
	res := cl.ClassifyAll(regional.DefaultParams())

	asns := make([]netmodel.ASN, 0, 3)
	for _, as := range sc.Space.ASes() {
		asns = append(asns, as.ASN)
		if len(asns) == 3 {
			break
		}
	}
	regions := netmodel.Regions()[:2]

	inc := dataset.NewStore(tl, blocks)
	sb := NewStreamingBuilder(inc, sc.Space, DefaultMinCoverage)
	materialize := func(b *Builder) {
		for _, asn := range asns {
			b.AS(asn)
		}
		for _, rg := range regions {
			b.Region(res.Regions[rg], cl)
		}
	}
	materialize(sb)

	check := func(r int) {
		t.Helper()
		oracle := NewBuilderMinCoverage(inc, sc.Space, DefaultMinCoverage)
		for _, asn := range asns {
			assertSeriesEqual(t, fmt.Sprintf("round %d: %v", r, asn), oracle.AS(asn), sb.AS(asn))
		}
		for _, rg := range regions {
			assertSeriesEqual(t, fmt.Sprintf("round %d: %v", r, rg),
				oracle.Region(res.Regions[rg], cl), sb.Region(res.Regions[rg], cl))
		}
	}

	const checkEvery = 48
	for r := 0; r < rounds; r++ {
		fillRound(inc, r)
		if err := sb.Fold(r); err != nil {
			t.Fatalf("fold %d: %v", r, err)
		}
		if r == rounds/2 {
			if resume {
				// Kill/resume: serialize the store mid-campaign and warm a
				// fresh streaming builder from the snapshot.
				var buf bytes.Buffer
				if _, err := inc.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				reloaded, err := dataset.ReadFrom(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				inc = reloaded
				// The next round's routedness lands before its scan (what
				// PreRound's SetRouted does), so the resumed build sees
				// routed bits one round past the last count.
				for bi := 0; bi < inc.NumBlocks(); bi++ {
					inc.SetRound(bi, r+1, 0, true)
				}
				sb = NewStreamingBuilder(inc, sc.Space, DefaultMinCoverage)
				if got := sb.NextFold(); got != r+1 {
					t.Fatalf("resumed NextFold = %d, want %d", got, r+1)
				}
				materialize(sb)
			}
			// Re-folding the newest round must be idempotent.
			if err := sb.Fold(r); err != nil {
				t.Fatalf("re-fold %d: %v", r, err)
			}
			check(r)
		}
		if (r+1)%checkEvery == 0 || r == rounds-1 {
			check(r)
		}
	}

	// Guard against a vacuous pass: the crafted campaign must produce
	// non-trivial AS signal values.
	var sum float64
	for _, asn := range asns {
		es := sb.AS(asn)
		for r := range es.FBS {
			sum += float64(es.FBS[r]) + float64(es.IPS[r])
		}
	}
	if sum == 0 {
		t.Fatal("crafted campaign produced all-zero AS series")
	}
}

// TestFoldRejectsBatchBuilder pins Fold's bounds: only within the timeline,
// and a round behind the cursor is a no-op. (The name predates the single
// Builder: there is no batch-only builder left to reject.)
func TestFoldRejectsBatchBuilder(t *testing.T) {
	sc := sim.MustBuild(sim.Config{Seed: 11, Scale: 0.02})
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(59*6*time.Hour), 6*time.Hour)
	st := dataset.NewStore(tl, sc.Space.Blocks())

	sb := NewStreamingBuilder(st, sc.Space, DefaultMinCoverage)
	if err := sb.Fold(tl.NumRounds()); err == nil {
		t.Fatal("out-of-range fold did not error")
	}
	// Folding an already-folded prefix round is a silent no-op.
	fillRound(st, 0)
	fillRound(st, 1)
	if err := sb.Fold(1); err != nil {
		t.Fatal(err)
	}
	if err := sb.Fold(0); err != nil {
		t.Fatalf("no-op re-fold of an old round: %v", err)
	}
	if got := sb.NextFold(); got != 2 {
		t.Fatalf("NextFold = %d, want 2", got)
	}
}
