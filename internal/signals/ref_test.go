package signals

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/regional"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
)

// The oracle: the ever-active pass, buildAS and buildRegion as they were
// before each block's walk was bounded by what the store recorded — every
// block × every round of the timeline, recorded or not, read a cell at a
// time. Only the names and the cell reads changed, and the IPS gate's bound
// on the handled rounds was added: a batch build's is the whole timeline.

// refNewStreamingBuilder is the oracle built cold as NewStreamingBuilder
// builds: a live campaign's IPS gate averages through the store's resume
// cursor, not over the whole timeline.
func refNewStreamingBuilder(store *dataset.Store, space *netmodel.Space, minCoverage float64) *Builder {
	b := refNewBuilderMinCoverage(store, space, minCoverage)
	b.handled = b.nextFold
	return b
}

func refNewBuilderMinCoverage(store *dataset.Store, space *netmodel.Space, minCoverage float64) *Builder {
	tl := store.Timeline()
	months := tl.NumMonths()
	rounds := tl.NumRounds()
	b := &Builder{
		store:       store,
		space:       space,
		tl:          tl,
		months:      months,
		everMax:     make([]uint8, store.NumBlocks()*months),
		elig:        make([]bool, store.NumBlocks()*months),
		asBlocks:    make(map[netmodel.ASN][]int),
		missing:     store.EffectiveMissing(minCoverage),
		minCoverage: minCoverage,
		metrics:     &Metrics{},
		nextFold:    store.NextUndone(),
		handled:     rounds,
	}
	// The ever-active aggregates are independent per block: one pass over
	// the block's round series per worker-pool shard. MonthStats skips only
	// true vantage outages (not coverage-gated partial rounds), so the
	// aggregation here must too.
	outage := store.MissingRounds()
	par.ForEach(store.NumBlocks(), func(bi int) {
		base := bi * months
		for r := 0; r < rounds; r++ {
			if outage[r] {
				continue
			}
			if i, c := base+tl.MonthOfRound(r), uint8(store.Resp(bi, r)); c > b.everMax[i] {
				b.everMax[i] = c
			}
		}
		for m := 0; m < months; m++ {
			b.elig[base+m] = b.everMax[base+m] >= MinEverActive
		}
	})
	// Group blocks per AS sequentially so each AS's block list stays in
	// ascending index order: series accumulation order (and thus float
	// rounding) must not depend on the worker count.
	for bi := 0; bi < store.NumBlocks(); bi++ {
		blk := store.Blocks()[bi]
		if asn := space.OriginOf(blk); asn != 0 {
			b.asBlocks[asn] = append(b.asBlocks[asn], bi)
		}
	}
	return b
}

func (b *Builder) refBuildAS(asn netmodel.ASN) *EntitySeries {
	defer b.metrics.BuildSeconds.ObserveSince(time.Now())
	es := NewSeries(asn.String(), b.tl, b.missing)
	rounds := b.tl.NumRounds()
	for _, bi := range b.asBlocks[asn] {
		base := bi * b.months
		for r := 0; r < rounds; r++ {
			if es.Missing[r] {
				continue
			}
			c := float32(b.store.Resp(bi, r))
			es.IPS.Set(r, es.IPS.At(r)+c)
			if b.store.Routed(bi, r) {
				es.BGP.Set(r, es.BGP.At(r)+1)
			}
			if b.elig[base+b.tl.MonthOfRound(r)] && c > 0 {
				es.FBS.Set(r, es.FBS.At(r)+1)
			}
		}
	}
	b.fillIPSValidity(es)
	b.registerFold(&foldEntity{es: es, blocks: b.asBlocks[asn]})
	return es
}

func (b *Builder) refBuildRegion(rr *regional.RegionResult, cl *regional.Classifier) *EntitySeries {
	defer b.metrics.BuildSeconds.ObserveSince(time.Now())
	es := NewSeries(rr.Region.String(), b.tl, b.missing)
	rounds := b.tl.NumRounds()
	fe := &foldEntity{es: es}
	for _, bc := range rr.Blocks {
		if !bc.Regional {
			continue
		}
		bi := bc.Index
		fe.blocks = append(fe.blocks, bi)
		fe.eval = append(fe.eval, bc.EvalMonths)
		base := bi * b.months
		for r := 0; r < rounds; r++ {
			resp := b.store.Resp(bi, r)
			if es.Missing[r] {
				continue
			}
			m := b.tl.MonthOfRound(r)
			if !bc.EvalMonths[m] {
				continue
			}
			share := float32(cl.BlockShare(bi, m, rr.Region))
			c := float32(resp) * share
			es.IPS.Set(r, es.IPS.At(r)+c)
			if b.store.Routed(bi, r) {
				es.BGP.Set(r, es.BGP.At(r)+1)
			}
			if b.elig[base+m] && resp > 0 {
				es.FBS.Set(r, es.FBS.At(r)+1)
			}
		}
	}
	region := rr.Region
	fe.share = func(bi, m int) float32 { return float32(cl.BlockShare(bi, m, region)) }
	b.fillIPSValidity(es)
	b.registerFold(fe)
	return es
}

// TestBoundedBuildMatchesFullTimelineWalk compares the builder that walks
// only the store's written segments with the full-timeline oracle bit for bit — every AS, two regions,
// the ever-active maxima and Eligible for every block × month — on stores in
// every state a builder meets: fresh, part-way through a campaign, resumed
// from a checkpoint, with routed bits written ahead of the scan, with
// missing and coverage-gated rounds at the prefix's end, and complete.
func TestBoundedBuildMatchesFullTimelineWalk(t *testing.T) {
	sc := sim.MustBuild(sim.Config{Seed: 11, Scale: 0.02})
	blocks := sc.Space.Blocks()
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(479*6*time.Hour), 6*time.Hour)
	rounds := tl.NumRounds()

	// One classifier over a complete twin store, shared by both builders.
	twin := dataset.NewStore(tl, blocks)
	for r := 0; r < rounds; r++ {
		fillRound(twin, r)
	}
	cl := regional.NewClassifier(sc.Space, sc.GeoDB(), twin)
	res := cl.ClassifyAll(regional.DefaultParams())
	regions := netmodel.Regions()[:2]

	prefix := func(seed, k int) *dataset.Store {
		s := dataset.NewStore(tl, blocks)
		for r := 0; r < k; r++ {
			fillSeededRound(s, seed, r)
		}
		return s
	}
	resumed := func(s *dataset.Store) *dataset.Store {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out, err := dataset.ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// routedAt sets the routed bit of every third block at round r, leaving
	// its count alone — what PreRound's SetRouted leaves before a scan.
	routedAt := func(s *dataset.Store, r int) *dataset.Store {
		for bi := 0; bi < s.NumBlocks(); bi += 3 {
			s.SetRound(bi, r, s.Resp(bi, r), true)
		}
		return s
	}

	type storeCase struct {
		name  string
		store *dataset.Store
	}
	var cases []storeCase
	for _, seed := range []int{0, 5} {
		add := func(name string, s *dataset.Store) {
			cases = append(cases, storeCase{fmt.Sprintf("seed=%d/%s", seed, name), s})
		}
		add("fresh", dataset.NewStore(tl, blocks))
		add("prefix", prefix(seed, 200))
		add("prefix-word-edge", prefix(seed, 64))
		add("resumed", resumed(prefix(seed, 200)))
		add("routed-next", routedAt(prefix(seed, 200), 200))
		add("routed-far", routedAt(prefix(seed, 200), rounds-1))
		add("routed-only", routedAt(dataset.NewStore(tl, blocks), 130))
		missingEnd := prefix(seed, 200)
		missingEnd.SetMissing(199)
		missingEnd.SetMissing(350) // an outage marked ahead of the scan
		add("missing-end", missingEnd)
		gatedEnd := prefix(seed, 200)
		gatedEnd.SetCoverage(199, 0.5)
		add("gated-end", gatedEnd)
		add("complete", prefix(seed, rounds))
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := refNewBuilderMinCoverage(c.store, sc.Space, DefaultMinCoverage)
			got := NewBuilderMinCoverage(c.store, sc.Space, DefaultMinCoverage)
			if !slices.Equal(want.everMax, got.everMax) {
				t.Fatal("ever-active maxima differ from the full-timeline walk")
			}
			for bi := 0; bi < c.store.NumBlocks(); bi++ {
				for m := 0; m < tl.NumMonths(); m++ {
					if want.Eligible(bi, m) != got.Eligible(bi, m) {
						t.Fatalf("block %d month %d: Eligible %v vs oracle %v",
							bi, m, got.Eligible(bi, m), want.Eligible(bi, m))
					}
				}
			}
			for _, as := range sc.Space.ASes() {
				assertSeriesEqual(t, as.ASN.String(), want.refBuildAS(as.ASN), got.AS(as.ASN))
			}
			for _, rg := range regions {
				rr := res.Regions[rg]
				assertSeriesEqual(t, rg.String(), want.refBuildRegion(rr, cl), got.Region(rr, cl))
			}
		})
	}
}

// The FuseBlock oracle: its body as it was when verdicts were deduplicated
// through a map keyed by vantage plus a slice of first-seen names. Kept
// verbatim; only the name moved.
func refFuseBlock(prev, merged int, verdicts []VantageVerdict, quorum int) (resp int, outcome FuseOutcome) {
	if quorum < 1 {
		quorum = 1
	}
	// Deduplicate by vantage, preferring full-block evidence.
	byVantage := make(map[string]VantageVerdict, len(verdicts))
	order := make([]string, 0, len(verdicts))
	for _, v := range verdicts {
		cur, ok := byVantage[v.Vantage]
		if !ok {
			order = append(order, v.Vantage)
			byVantage[v.Vantage] = v
			continue
		}
		if v.Full && !cur.Full || v.Full == cur.Full && v.Weight > cur.Weight {
			byVantage[v.Vantage] = v
		}
	}
	alive, darkWeight := 0, 0.0
	for _, name := range order {
		v := byVantage[name]
		if v.Resp > 0 {
			if v.Full && v.Resp > alive {
				alive = v.Resp
			} else if alive == 0 {
				alive = 1 // sample evidence: alive, but the count is partial
			}
		} else {
			darkWeight += v.Weight
		}
	}
	switch {
	case alive > 0:
		resp = merged
		if alive > resp {
			resp = alive
		}
		return resp, FuseAlive
	case darkWeight >= float64(min(quorum, len(order)))-1e-9 && len(order) > 0:
		return 0, FuseDown
	default:
		return prev, FuseHeld
	}
}

// TestFuseBlockMatchesMapDedup: the stack-array dedup decides as the map did
// on duplicate, full, partial and weighted verdict sets — including weights
// whose float sum depends on the order they are added in, and more vantages
// than the stack array holds — and on random sets; and a fleet-sized call
// allocates nothing.
func TestFuseBlockMatchesMapDedup(t *testing.T) {
	cases := []struct {
		name     string
		verdicts []VantageVerdict
		quorum   int
	}{
		{"no verdicts", nil, 2},
		{"duplicate sample then full", []VantageVerdict{v("a", 3, 0.4, false), v("a", 0, 1, true), v("b", 0, 1, false)}, 2},
		{"duplicate full then sample", []VantageVerdict{v("a", 0, 1, true), v("a", 9, 1, false), v("b", 0, 0.5, false)}, 2},
		{"duplicate samples, heavier wins", []VantageVerdict{v("a", 0, 0.3, false), v("a", 4, 0.9, false), v("b", 0, 1, false)}, 1},
		{"duplicate equal weights, first kept", []VantageVerdict{v("a", 0, 0.5, false), v("a", 7, 0.5, false), v("b", 0, 0.5, false)}, 1},
		{"all full alive, best count", []VantageVerdict{v("a", 12, 1, true), v("b", 30, 1, true), v("c", 0, 1, true)}, 2},
		{"partial coverage short of quorum", []VantageVerdict{v("a", 0, 0.6, false), v("b", 0, 0.35, false), v("c", 0, 0.0499999999, false)}, 1},
		{"three weights summing to the quorum", []VantageVerdict{
			v("a", 0, 0.1, false), v("b", 0, 0.2, false), v("c", 0, 0.7, false), v("a", 0, 0.05, false)}, 1},
		{"quorum beyond the vantages", []VantageVerdict{v("a", 0, 1, false), v("b", 0, 1, false)}, 5},
		{"quorum below one", []VantageVerdict{v("a", 0, 0.99999999995, false)}, 0},
		{"more vantages than the stack array", func() []VantageVerdict {
			var vs []VantageVerdict
			for i := 0; i < 12; i++ {
				vs = append(vs, v(fmt.Sprintf("v%d", i%10), 0, 0.1*float64(i%4)+0.05, i%5 == 0))
			}
			return vs
		}(), 7},
	}
	check := func(name string, verdicts []VantageVerdict, quorum int) {
		t.Helper()
		for _, prev := range []int{1, 40} {
			gotResp, gotOut := FuseBlock(prev, 17, verdicts, quorum)
			wantResp, wantOut := refFuseBlock(prev, 17, verdicts, quorum)
			if gotResp != wantResp || gotOut != wantOut {
				t.Fatalf("%s (prev %d): FuseBlock = %d, %v; oracle %d, %v", name, prev, gotResp, gotOut, wantResp, wantOut)
			}
		}
	}
	outcomes := map[FuseOutcome]bool{}
	for _, c := range cases {
		check(c.name, c.verdicts, c.quorum)
		_, o := FuseBlock(40, 17, c.verdicts, c.quorum)
		outcomes[o] = true
	}
	if len(outcomes) != 3 {
		t.Errorf("the table reaches %d of the 3 outcomes", len(outcomes))
	}
	rng := rand.New(rand.NewSource(29))
	weights := []float64{0.1, 0.2, 0.3, 1.0 / 3, 0.7, 1}
	for i := 0; i < 20000; i++ {
		vs := make([]VantageVerdict, rng.Intn(14))
		for j := range vs {
			resp := 0
			if rng.Intn(4) == 0 {
				resp = rng.Intn(40)
			}
			vs[j] = v(fmt.Sprintf("v%d", rng.Intn(11)), resp, weights[rng.Intn(len(weights))], rng.Intn(3) == 0)
		}
		check(fmt.Sprintf("random set %d %+v", i, vs), vs, rng.Intn(5))
	}

	fleet := []VantageVerdict{v("v0", 0, 1, false), v("v1", 0, 0.8, false), v("v2", 3, 1, false), v("v1", 0, 1, true)}
	if allocs := testing.AllocsPerRun(100, func() { FuseBlock(40, 17, fleet, 2) }); allocs != 0 {
		t.Errorf("FuseBlock over a 3-vantage fleet: %.1f allocs, want 0", allocs)
	}
}

// The resume oracle: the one-pass Detect and its exactness guard as they
// were before the pass carried its state across calls. The bodies are kept
// verbatim; only the names changed.

// refSlidesExactly reports whether a running sum over vals — drop the round
// leaving the window, add the one entering — is bit-identical to
// MovingAverage's fresh left-to-right sum of every window. Float addition is
// order-independent when no partial sum rounds, and none does when every
// value is finite and ≥ 0 (a partial sum is then at most its window's sum)
// and a window's sum stays below 2^(q+53), q being the lowest bit set in any
// value: every partial sum is a multiple of 2^q that a float64 holds exactly.
// Counts and share-weighted regional sums pass; a negative, NaN, infinite or
// subnormal cell, or values spanning more than 53 bits, do not.
func refSlidesExactly(vals []float32, window int) bool {
	hi, q := 0, 1<<20 // highest exponent field; lowest set bit as a power of two
	for _, v := range vals {
		b := math.Float32bits(v)
		if b<<1 == 0 {
			continue // ±0 adds nothing and sets no bit
		}
		exp := int(b >> 23) // with the sign bit: ≥ 256 when negative
		if exp == 0 || exp >= 255 {
			return false
		}
		hi = max(hi, exp)
		q = min(q, exp-150+bits.TrailingZeros32(b|1<<23)) // v = (2^23 + fraction) × 2^(exp-150)
	}
	// Every value is below 2^(hi-126); a window holds at most 2^Len(window-1).
	return hi-126+bits.Len(uint(window-1)) <= q+53
}

// refOnePass runs outage detection for one entity series in one pass: the three
// seven-day baselines are running sums stepped once per round, bit-identical
// to MovingAverage at every round — which a series failing refSlidesExactly gets.
func refOnePass(es *EntitySeries, cfg Config) *Detection {
	rounds := es.BGP.Len()
	window := cfg.WindowRounds
	if window <= 0 {
		window = es.TL.RoundsPerWeek()
	}
	d := &Detection{Flags: make([]Kind, rounds)}

	exact := refSlidesExactly(es.BGP.flat(), window) && refSlidesExactly(es.FBS.flat(), window) && refSlidesExactly(es.IPS.flat(), window)
	var sumBGP, sumFBS, sumIPS float64 // over the n measured rounds of [r-window, r)
	n, month, monthEnd := 0, 0, 0      // month is r's, re-read when r reaches monthEnd

	ongoingZeroBGP := false
	inOutage := false
	var cur Outage
	for r := 0; r < rounds; r++ {
		// Slide the window to [r-window, r): drop before adding, so a sum
		// never holds more than window values.
		if out := r - 1 - window; out >= 0 && !es.Missing[out] {
			n--
			sumBGP -= float64(es.BGP.At(out))
			sumFBS -= float64(es.FBS.At(out))
			sumIPS -= float64(es.IPS.At(out))
		}
		if r > 0 && !es.Missing[r-1] {
			n++
			sumBGP += float64(es.BGP.At(r - 1))
			sumFBS += float64(es.FBS.At(r - 1))
			sumIPS += float64(es.IPS.At(r - 1))
		}
		if es.Missing[r] {
			continue // a missing round neither flags nor ends an outage
		}
		if r >= monthEnd {
			month = es.TL.MonthOfRound(r)
			_, monthEnd = es.TL.MonthRounds(month)
		}
		var flags Kind

		// One verdict for the three baselines: they share the missing mask
		// (window ≥ 1, so ok implies n > 0).
		ok := n*4 >= window
		var maBGP, maFBS, maIPS float64
		if ok && exact {
			maBGP, maFBS, maIPS = sumBGP/float64(n), sumFBS/float64(n), sumIPS/float64(n)
		} else if ok {
			maBGP, _ = MovingAverage(&es.BGP, es.Missing, r, window)
			maFBS, _ = MovingAverage(&es.FBS, es.Missing, r, window)
			maIPS, _ = MovingAverage(&es.IPS, es.Missing, r, window)
		}

		ipsBelow := func(frac float64) bool {
			return ok && maIPS >= cfg.MinBaseline && float64(es.IPS.At(r)) < frac*maIPS
		}

		if ok && maBGP >= cfg.MinBaseline && float64(es.BGP.At(r)) < cfg.BGPFrac*maBGP {
			flags |= SignalBGP
		}
		if ok && maFBS >= cfg.MinBaseline && float64(es.FBS.At(r)) < cfg.FBSFrac*maFBS {
			fires := true
			if cfg.FBSRequiresIPSBelow > 0 && !ipsBelow(cfg.FBSRequiresIPSBelow) {
				fires = false
			}
			if cfg.AvailabilitySensing && maIPS > 0 &&
				float64(es.IPS.At(r)) >= 0.98*maIPS {
				// Blocks vanished but addresses kept answering elsewhere in
				// the entity: dynamic reallocation, not an outage.
				fires = false
			}
			if fires {
				flags |= SignalFBS
			}
		}
		if es.IPSValidMonth[month] && ipsBelow(cfg.IPSFrac) {
			flags |= SignalIPS
		}

		// Zero-BGP ongoing flag: once everything is withdrawn, the outage
		// persists until routes return, regardless of the moving average.
		hadBGP := ok && maBGP >= cfg.MinBaseline
		if es.BGP.At(r) == 0 && (hadBGP || ongoingZeroBGP) {
			if flags == 0 {
				flags |= SignalBGP
			}
			ongoingZeroBGP = true
		} else if es.BGP.At(r) > 0 {
			ongoingZeroBGP = false
		}
		d.Flags[r] = flags

		// Merge consecutive flagged rounds into events.
		if flags != 0 {
			if !inOutage {
				cur = Outage{Start: r}
				inOutage = true
			}
			cur.Signals |= flags
			if es.BGP.At(r) == 0 {
				cur.Ongoing = true
			}
			cur.End = r + 1
		} else if inOutage {
			d.Outages = append(d.Outages, cur)
			inOutage = false
		}
	}
	if inOutage {
		d.Outages = append(d.Outages, cur)
	}
	return d
}
