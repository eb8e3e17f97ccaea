package ioda

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/regional"
	"countrymon/internal/serve"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
	"countrymon/internal/trinocular"
)

var (
	once sync.Once
	fSc  *sim.Scenario
	fSt  *dataset.Store
	fP   *Platform
)

func fixture(t *testing.T) (*sim.Scenario, *Platform) {
	t.Helper()
	once.Do(func() {
		fSc = sim.MustBuild(sim.Config{Seed: 42, Scale: 0.04,
			End: timeline.DefaultStart.AddDate(0, 10, 0)})
		fSt = fSc.GenerateStore(nil)
		cl := regional.NewClassifier(fSc.Space, fSc.GeoDB(), fSt)
		res := cl.ClassifyAll(regional.DefaultParams())
		probe := fSc.RecordedProbe(fSt)
		runner := trinocular.NewRunner(fSt, fSc.Space, fSc.Representatives, probe)
		trin := runner.Run(probe)
		fP = New(fSt, fSc.Space, trin, res)
	})
	return fSc, fP
}

func TestReportingFloorHidesSmallASes(t *testing.T) {
	sc, p := fixture(t)
	// Status (4 blocks) must be below the floor; Kyivstar far above.
	if p.Reported(25482) {
		t.Error("Status (4 /24s) should be hidden by the ≥20 blocks rule")
	}
	if !p.Reported(15895) {
		t.Error("Kyivstar should be reported")
	}
	if d := p.DetectAS(25482); d != nil {
		t.Error("DetectAS must return nil below the floor")
	}
	reported := p.ReportedASes()
	if len(reported) == 0 {
		t.Fatal("no reported ASes")
	}
	if len(reported) > sc.Space.NumASes()/2 {
		t.Errorf("reporting floor too permissive: %d of %d", len(reported), sc.Space.NumASes())
	}
}

func TestNationalBGPOutageBleedsAcrossRegions(t *testing.T) {
	// A cable-cut window that withdraws Volia (national, present in many
	// oblasts) should raise IODA's regional BGP signal in several regions
	// at once, even though the ground-truth event is Kherson-scoped for
	// the regional blocks.
	sc, p := fixture(t)
	cut := sc.TL.Round(time.Date(2022, 5, 1, 12, 0, 0, 0, time.UTC))
	affected := 0
	for _, region := range []netmodel.Region{netmodel.Kherson, netmodel.Kyiv, netmodel.Lviv, netmodel.Odessa} {
		d := p.DetectRegion(region)
		if d.Flags[cut].Has(signals.SignalBGP) || d.Flags[cut].Has(signals.SignalFBS) {
			affected++
		}
	}
	if affected < 2 {
		t.Errorf("national outage visible in only %d regions; IODA's attribution should bleed", affected)
	}
}

func TestASSeriesShape(t *testing.T) {
	sc, p := fixture(t)
	es := p.ASSeries(15895)
	if len(es.BGP) != sc.TL.NumRounds() {
		t.Fatal("series length wrong")
	}
	// The IPS signal must never be valid for IODA.
	for m, v := range es.IPSValidMonth {
		if v {
			t.Fatalf("IPS valid in month %d", m)
		}
	}
	// BGP counts routed /24s of the whole AS.
	mid := sc.TL.NumRounds() / 2
	for fSt.Missing(mid) {
		mid++
	}
	if es.BGP[mid] == 0 {
		t.Error("Kyivstar should have routed blocks mid-campaign")
	}
	if es.FBS[mid] == 0 {
		t.Error("Kyivstar should have Trinocular-up blocks mid-campaign")
	}
}

func TestIODADetectsLargeOutage(t *testing.T) {
	sc, p := fixture(t)
	// Volia is national (>20 blocks) and loses BGP during the cable cut
	// (its Kherson blocks) — but critically IODA should detect *some*
	// outage for a large AS over the window where ground truth scripted
	// one AS-wide event. Use Ukrtelecom 6877, a cable-cut AS.
	d := p.DetectAS(6877)
	if d == nil {
		t.Fatal("Ukrtelecom not reported")
	}
	cut := sc.TL.Round(time.Date(2022, 5, 1, 12, 0, 0, 0, time.UTC))
	found := false
	for _, o := range d.Outages {
		if o.Start <= cut && cut < o.End {
			found = true
		}
	}
	if !found {
		t.Error("IODA missed the cable-cut outage of a large AS")
	}
}

func TestCoverageVersusReporting(t *testing.T) {
	_, p := fixture(t)
	// Trinocular can *cover* a small AS without the platform *reporting*
	// it (Fig 27's 90%-coverage observation).
	covered, reported := 0, 0
	for _, as := range fSc.Space.ASes() {
		if p.HasCoverage(as.ASN) {
			covered++
			if p.Reported(as.ASN) {
				reported++
			}
		}
	}
	if covered == 0 {
		t.Fatal("no coverage at all")
	}
	if reported >= covered {
		t.Errorf("reported (%d) should be far below covered (%d)", reported, covered)
	}
}

// A store that has sealed fewer rounds than the first month holds feeds the
// fixed-baseline detector a view shorter than its baseline window: the
// baseline is then the mean of what is sealed, not an index past the view.
func TestDetectRegionSeriesShortSealedView(t *testing.T) {
	_, p := fixture(t)
	es := p.RegionSeries(netmodel.Kherson)
	st := serve.NewStore(es.TL)
	e, err := st.Register("region", "Kherson", serve.SeriesSource(es), regionDetector)
	if err != nil {
		t.Fatal(err)
	}
	const sealed = 10
	if _, monthEnd := es.TL.MonthRounds(0); monthEnd <= sealed {
		t.Fatalf("month 0 ends at round %d: the view would not be short", monthEnd)
	}
	if err := st.AdvanceTo(sealed); err != nil {
		t.Fatal(err)
	}
	got := st.Detection(e)

	short := *es
	short.BGP, short.FBS, short.IPS, short.Missing = es.BGP[:sealed], es.FBS[:sealed], es.IPS[:sealed], es.Missing[:sealed]
	if want := detectRegionSeries(&short); !reflect.DeepEqual(got, want) {
		t.Errorf("detection over the sealed view = %+v, over the truncated series %+v", got, want)
	}
	if len(got.Flags) != sealed {
		t.Errorf("detection covers %d rounds, want %d", len(got.Flags), sealed)
	}
}
