package passive

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
	fCl  *regional.Classifier
	fRes *regional.Result
)

func fixture(t *testing.T) {
	t.Helper()
	once.Do(func() {
		fSc = sim.MustBuild(sim.Config{Seed: 42, Scale: 0.03,
			End: timeline.DefaultStart.AddDate(0, 9, 0)})
		fSt = fSc.GenerateStore(nil)
		fCl = regional.NewClassifier(fSc.Space, fSc.GeoDB(), fSt)
		fRes = fCl.ClassifyAll(regional.DefaultParams())
	})
}

func TestVolumeSeriesDiurnal(t *testing.T) {
	fixture(t)
	vol := VolumeSeries(fSt, fCl, fRes.Regions[netmodel.Kyiv])
	if len(vol) != fSt.Timeline().NumRounds() {
		t.Fatal("length mismatch")
	}
	// Evening volumes must exceed deep-night volumes on a calm day.
	tl := fSt.Timeline()
	day := time.Date(2022, 9, 20, 0, 0, 0, 0, time.UTC)
	evening := vol[tl.Round(day.Add(18*time.Hour))] // 20:00 local
	night := vol[tl.Round(day.Add(2*time.Hour))]    // 04:00 local
	if evening <= night {
		t.Errorf("no diurnal demand cycle: evening %.0f vs night %.0f", evening, night)
	}
	if evening == 0 {
		t.Fatal("no traffic at all")
	}
}

func TestPassiveDetectsCableCut(t *testing.T) {
	fixture(t)
	vol := VolumeSeries(fSt, fCl, fRes.Regions[netmodel.Kherson])
	d := Detect(vol, fSt.Timeline(), 0.5)
	cut := fSt.Timeline().Round(time.Date(2022, 5, 1, 12, 0, 0, 0, time.UTC))
	found := false
	for _, o := range d.Outages {
		if o.Start <= cut && cut < o.End {
			found = true
		}
	}
	if !found {
		t.Errorf("passive observer missed the oblast-wide cable cut (%d outages)", len(d.Outages))
	}
}

func TestPassiveCannotAttribute(t *testing.T) {
	// The structural limitation: passive events carry only a region and a
	// volume, never an AS or block — this test documents the API contract.
	fixture(t)
	vol := VolumeSeries(fSt, fCl, fRes.Regions[netmodel.Kherson])
	d := Detect(vol, fSt.Timeline(), 0.5)
	for _, o := range d.Outages {
		if o.Signals != 0 && o.Signals.Has(0x80) {
			t.Fatal("impossible")
		}
	}
	// Compare: the active pipeline distinguishes the seizure (one AS's IPS
	// dip) which is invisible in region-level volumes.
	seizure := fSt.Timeline().Round(time.Date(2022, 5, 13, 10, 30, 0, 0, time.UTC))
	for _, o := range d.Outages {
		if o.Start <= seizure && seizure < o.End {
			t.Log("note: passive flagged the seizure window at region level (volume coincidence)")
		}
	}
}

func TestDetectBaselineWarmup(t *testing.T) {
	// With no history, detection must stay silent instead of flagging the
	// warm-up period.
	tl := timeline.New(time.Unix(0, 0).UTC(), time.Unix(0, 0).UTC().Add(100*2*time.Hour), 2*time.Hour)
	vol := make([]float64, tl.NumRounds())
	for i := range vol {
		vol[i] = 100
	}
	d := Detect(vol, tl, 0.5)
	if len(d.Outages) != 0 {
		t.Errorf("flat series produced outages: %+v", d.Outages)
	}
}
