package signals

import (
	"sync"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/regional"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
)

var (
	once sync.Once
	fSc  *sim.Scenario
	fSt  *dataset.Store
	fB   *Builder
	fCl  *regional.Classifier
	fRes *regional.Result
)

func fixture(t *testing.T) (*sim.Scenario, *Builder) {
	t.Helper()
	once.Do(func() {
		fSc = sim.MustBuild(sim.Config{Seed: 42, Scale: 0.05})
		fSt = fSc.GenerateStore(nil)
		fB = NewBuilder(fSt, fSc.Space)
		fCl = regional.NewClassifier(fSc.Space, fSc.GeoDB(), fSt)
		fRes = fCl.ClassifyAll(regional.DefaultParams())
	})
	return fSc, fB
}

// syntheticSeries builds an EntitySeries with constant baselines for
// manual manipulation.
func syntheticSeries(rounds int, bgp, fbs, ips float32) *EntitySeries {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(time.Duration(rounds-1)*2*time.Hour), 2*time.Hour)
	es := NewSeries("synthetic", tl, make([]bool, rounds))
	for r := 0; r < rounds; r++ {
		es.BGP.Set(r, bgp)
		es.FBS.Set(r, fbs)
		es.IPS.Set(r, ips)
	}
	for m := range es.IPSValidMonth {
		es.IPSValidMonth[m] = ips > MinIPSMonthly
	}
	return es
}

func TestDetectSyntheticBGPOutage(t *testing.T) {
	es := syntheticSeries(400, 10, 8, 500)
	for r := 200; r < 212; r++ {
		es.BGP.Set(r, 0)
		es.FBS.Set(r, 0)
		es.IPS.Set(r, 0)
	}
	d := Detect(es, ASConfig())
	if len(d.Outages) != 1 {
		t.Fatalf("outages = %d, want 1 (%+v)", len(d.Outages), d.Outages)
	}
	o := d.Outages[0]
	if o.Start != 200 || o.End != 212 {
		t.Errorf("outage [%d,%d), want [200,212)", o.Start, o.End)
	}
	if !o.Signals.Has(SignalBGP) || !o.Signals.Has(SignalIPS) {
		t.Errorf("signals = %v", o.Signals)
	}
	if got := o.Duration(2 * time.Hour); got != 24*time.Hour {
		t.Errorf("duration = %v", got)
	}
}

func TestDetectIPSOnlyPartialOutage(t *testing.T) {
	es := syntheticSeries(400, 10, 8, 500)
	for r := 150; r < 160; r++ {
		es.IPS.Set(r, 250) // half the IPs gone; blocks still active
	}
	d := Detect(es, ASConfig())
	if len(d.Outages) != 1 {
		t.Fatalf("outages = %d", len(d.Outages))
	}
	if d.Outages[0].Signals != SignalIPS {
		t.Errorf("signals = %v, want IPS only", d.Outages[0].Signals)
	}
}

func TestAvailabilitySensingFiltersReallocation(t *testing.T) {
	// Blocks disappear while responsive IPs stay stable: dynamic
	// reallocation must not be flagged (§3.1).
	mk := func() *EntitySeries {
		es := syntheticSeries(400, 10, 8, 500)
		for r := 150; r < 170; r++ {
			es.FBS.Set(r, 4) // half the blocks "gone"
		}
		return es
	}
	cfg := ASConfig()
	d := Detect(mk(), cfg)
	if len(d.Outages) != 0 {
		t.Errorf("availability sensing should filter the FBS drop: %+v", d.Outages)
	}
	cfg.AvailabilitySensing = false
	cfg.FBSRequiresIPSBelow = 0
	d = Detect(mk(), cfg)
	if len(d.Outages) == 0 {
		t.Error("with sensing off the FBS drop must be detected")
	}
}

func TestOngoingZeroBGPOutage(t *testing.T) {
	// A permanent withdrawal: the moving average adapts but the zero-BGP
	// flag keeps the outage open (§3.1).
	es := syntheticSeries(600, 10, 8, 500)
	for r := 300; r < 600; r++ {
		es.BGP.Set(r, 0)
		es.FBS.Set(r, 0)
		es.IPS.Set(r, 0)
	}
	d := Detect(es, ASConfig())
	if len(d.Outages) != 1 {
		t.Fatalf("outages = %d, want 1 continuous", len(d.Outages))
	}
	o := d.Outages[0]
	if !o.Ongoing {
		t.Error("Ongoing flag missing")
	}
	if o.End != 600 {
		t.Errorf("outage should extend to the end, got %d", o.End)
	}
}

func TestMissingRoundsBridgeOutages(t *testing.T) {
	es := syntheticSeries(400, 10, 8, 500)
	for r := 200; r < 220; r++ {
		es.BGP.Set(r, 0)
		es.FBS.Set(r, 0)
		es.IPS.Set(r, 0)
	}
	for r := 205; r < 212; r++ {
		es.Missing[r] = true
	}
	d := Detect(es, ASConfig())
	if len(d.Outages) != 1 {
		t.Fatalf("missing rounds split the outage: %+v", d.Outages)
	}
}

func TestMovingAverage(t *testing.T) {
	vals := []float32{10, 10, 10, 20, 20, 20}
	missing := make([]bool, 6)
	ma, ok := MovingAverage(testColumn(vals), missing, 6, 6)
	if !ok || ma != 15 {
		t.Errorf("ma = %f ok=%v", ma, ok)
	}
	missing[0], missing[1], missing[2], missing[3], missing[4] = true, true, true, true, true
	if _, ok := MovingAverage(testColumn(vals), missing, 6, 6); ok {
		t.Error("sparse window should not produce a baseline")
	}
}

func TestStatusCableCutDetected(t *testing.T) {
	sc, b := fixture(t)
	es := b.AS(25482)
	d := Detect(es, ASConfig())
	cut := sc.TL.Round(time.Date(2022, 5, 1, 12, 0, 0, 0, time.UTC))
	found := false
	for _, o := range d.Outages {
		if o.Start <= cut && cut < o.End && o.Signals.Has(SignalBGP) {
			found = true
		}
	}
	if !found {
		t.Errorf("Mykolaiv cable cut not detected for Status; outages=%d", len(d.Outages))
	}
}

func TestStatusSeizureIPSOnly(t *testing.T) {
	sc, b := fixture(t)
	es := b.AS(25482)
	d := Detect(es, ASConfig())
	// The default fixture probes every 6 h (rounds at 04/10/16/22 UTC);
	// the 06:28–14:28 seizure window covers the 10:00 round.
	at := sc.TL.Round(time.Date(2022, 5, 13, 10, 30, 0, 0, time.UTC))
	if f := d.Flags[at]; !f.Has(SignalIPS) {
		t.Errorf("seizure IPS dip not flagged: flags=%v", f)
	} else if f.Has(SignalBGP) {
		t.Errorf("seizure should not look like a BGP outage: %v", f)
	}
}

func TestOstrovNetDamOutageLong(t *testing.T) {
	sc, b := fixture(t)
	es := b.AS(56446)
	d := Detect(es, ASConfig())
	mid := sc.TL.Round(time.Date(2023, 7, 15, 12, 0, 0, 0, time.UTC))
	var covering *Outage
	for i := range d.Outages {
		if d.Outages[i].Start <= mid && mid < d.Outages[i].End {
			covering = &d.Outages[i]
		}
	}
	if covering == nil {
		t.Fatal("Kakhovka flood outage not detected for OstrovNet")
	}
	if !covering.Ongoing {
		t.Error("three-month outage should carry the ongoing flag")
	}
	if covering.Duration(sc.TL.Interval()) < 45*24*time.Hour {
		t.Errorf("outage too short: %v", covering.Duration(sc.TL.Interval()))
	}
}

func TestRegionSeriesKherson(t *testing.T) {
	sc, b := fixture(t)
	rr := fRes.Regions[netmodel.Kherson]
	es := b.Region(rr, fCl)
	d := Detect(es, RegionConfig())
	if len(d.Outages) == 0 {
		t.Fatal("no regional outages in Kherson over three years of war")
	}
	// The cable-cut window must show a regional outage too.
	cut := sc.TL.Round(time.Date(2022, 5, 1, 12, 0, 0, 0, time.UTC))
	found := false
	for _, o := range d.Outages {
		if o.Start <= cut && cut < o.End {
			found = true
		}
	}
	if !found {
		t.Error("oblast-wide cable outage missing from the regional signal")
	}
}

func TestWinterPowerOutagesNonFrontline(t *testing.T) {
	// Non-frontline regions dip in winter 2022/23 via IPS; Crimea (Russian
	// grid) does not.
	_, b := fixture(t)
	lviv := Detect(b.Region(fRes.Regions[netmodel.Lviv], fCl), RegionConfig())
	crimea := Detect(b.Region(fRes.Regions[netmodel.Crimea], fCl), RegionConfig())

	winterStart := fSc.TL.Round(time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC))
	winterEnd := fSc.TL.Round(time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC))
	count := func(d *Detection) int {
		n := 0
		for r := winterStart; r < winterEnd; r++ {
			if d.Flags[r].Has(SignalIPS) {
				n++
			}
		}
		return n
	}
	lv, cr := count(lviv), count(crimea)
	if lv == 0 {
		t.Error("no winter IPS outage rounds in Lviv")
	}
	if cr >= lv {
		t.Errorf("Crimea (%d) should see fewer winter outage rounds than Lviv (%d)", cr, lv)
	}
}

func TestBuilderEligibility(t *testing.T) {
	_, b := fixture(t)
	// Eligibility must match the store's judgement.
	for bi := 0; bi < fSt.NumBlocks(); bi += 211 {
		for m := 0; m < fSt.Timeline().NumMonths(); m += 7 {
			if b.Eligible(bi, m) != fSt.EligibleFBS(bi, m, MinEverActive) {
				t.Fatalf("eligibility mismatch at block %d month %d", bi, m)
			}
		}
	}
	// ASBlocks covers the whole space exactly once.
	total := 0
	for _, as := range fSc.Space.ASes() {
		total += len(b.ASBlocks(as.ASN))
	}
	if total != fSt.NumBlocks() {
		t.Errorf("ASBlocks covers %d of %d blocks", total, fSt.NumBlocks())
	}
}

func TestKindString(t *testing.T) {
	if (SignalBGP | SignalIPS).String() != "BGP★+IPS▲" {
		t.Errorf("got %q", (SignalBGP | SignalIPS).String())
	}
	if Kind(0).String() != "none" {
		t.Error("zero mask should render none")
	}
}

// testColumn wraps vals as a column over a bi-hourly timeline of their
// length, starting on the first of a month.
func testColumn(vals []float32) *Column {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(time.Duration(len(vals)-1)*2*time.Hour), 2*time.Hour)
	c := ColumnOf(tl, vals)
	return &c
}

// flat returns the column's rounds as one slice of their own.
func (c *Column) flat() []float32 {
	out := make([]float32, c.Len())
	for r := range out {
		out[r] = c.At(r)
	}
	return out
}
