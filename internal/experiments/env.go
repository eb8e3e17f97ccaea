// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index). Each experiment is a pure
// function of a shared Env — the fully materialized measurement pipeline:
// scenario → store → classification → signals → baselines — so individual
// experiments stay cheap and the expensive state is built once.
package experiments

import (
	"bytes"
	"sort"
	"sync"

	"countrymon/internal/dataset"
	"countrymon/internal/ioda"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/power"
	"countrymon/internal/regional"
	"countrymon/internal/ripe"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
	"countrymon/internal/trinocular"
)

// Env is the lazily materialized pipeline shared by all experiments.
type Env struct {
	cfg sim.Config

	scOnce sync.Once
	sc     *sim.Scenario

	storeOnce sync.Once
	store     *dataset.Store

	clOnce sync.Once
	cl     *regional.Classifier
	res    *regional.Result

	sigOnce sync.Once
	sig     *signals.Builder

	trinOnce sync.Once
	trin     *trinocular.Result
	trinInfo *trinocular.Runner

	iodaOnce sync.Once
	iodaP    *ioda.Platform

	targetOnce sync.Once
	targetSet  *regional.TargetSet
	targetASNs []netmodel.ASN

	// Detection caches have per-key once semantics: concurrent callers
	// asking for the same entity share one Detect run instead of racing to
	// compute it twice.
	ourAS     par.Cache[netmodel.ASN, *signals.Detection]
	iodaAS    par.Cache[netmodel.ASN, *signals.Detection]
	ourRegion par.Cache[netmodel.Region, *signals.Detection]
	iodaReg   par.Cache[netmodel.Region, *signals.Detection]

	powerOnce sync.Once
	powerRep  *power.Report

	ripeOnce sync.Once
	ripeEnds [2]*ripe.File
}

// New builds an Env for the given scenario configuration.
func New(cfg sim.Config) *Env {
	return &Env{cfg: cfg}
}

// Config returns the scenario configuration.
func (e *Env) Config() sim.Config { return e.Scenario().Cfg }

// Scenario returns the ground-truth scenario.
func (e *Env) Scenario() *sim.Scenario {
	e.scOnce.Do(func() { e.sc = sim.MustBuild(e.cfg) })
	return e.sc
}

// Store returns the measurement store, with RTTs tracked for every block of
// the 34 Kherson ASes (Fig 12/13/14 need them).
func (e *Env) Store() *dataset.Store {
	e.storeOnce.Do(func() {
		sc := e.Scenario()
		var track []netmodel.BlockID
		for _, asn := range sim.KhersonASNs() {
			if as := sc.Space.Lookup(asn); as != nil {
				track = append(track, as.Blocks()...)
			}
		}
		e.store = sc.GenerateStore(track)
	})
	return e.store
}

// Classifier returns the regional classifier.
func (e *Env) Classifier() *regional.Classifier {
	e.clOnce.Do(func() {
		sc := e.Scenario()
		e.cl = regional.NewClassifier(sc.Space, sc.GeoDB(), e.Store())
		e.res = e.cl.ClassifyAll(regional.DefaultParams())
	})
	return e.cl
}

// Classification returns the default-parameter classification of all
// regions.
func (e *Env) Classification() *regional.Result {
	e.Classifier()
	return e.res
}

// Signals returns the signal builder.
func (e *Env) Signals() *signals.Builder {
	e.sigOnce.Do(func() { e.sig = signals.NewBuilder(e.Store(), e.Scenario().Space) })
	return e.sig
}

// Trinocular returns the baseline's campaign result.
func (e *Env) Trinocular() *trinocular.Result {
	e.trinOnce.Do(func() {
		sc := e.Scenario()
		probe := sc.RecordedProbe(e.Store())
		e.trinInfo = trinocular.NewRunner(e.Store(), sc.Space, sc.Representatives, probe)
		e.trin = e.trinInfo.Run(probe)
	})
	return e.trin
}

// TrinocularRunner returns the runner (eligibility metadata).
func (e *Env) TrinocularRunner() *trinocular.Runner {
	e.Trinocular()
	return e.trinInfo
}

// IODA returns the baseline platform.
func (e *Env) IODA() *ioda.Platform {
	e.iodaOnce.Do(func() {
		e.iodaP = ioda.New(e.Store(), e.Scenario().Space, e.Trinocular(), e.Classification())
	})
	return e.iodaP
}

// TargetSet returns the measurement target set (Table 3's final row).
func (e *Env) TargetSet() *regional.TargetSet {
	e.targetOnce.Do(func() {
		e.targetSet = e.Classification().TargetSet(e.Classifier())
		for asn := range e.targetSet.ASes {
			e.targetASNs = append(e.targetASNs, asn)
		}
		sort.Slice(e.targetASNs, func(i, j int) bool { return e.targetASNs[i] < e.targetASNs[j] })
	})
	return e.targetSet
}

// TargetASNs returns the target-set ASes, sorted.
func (e *Env) TargetASNs() []netmodel.ASN {
	e.TargetSet()
	return e.targetASNs
}

// OurAS returns (and caches) our detection for an AS.
func (e *Env) OurAS(asn netmodel.ASN) *signals.Detection {
	return e.ourAS.Get(asn, func() *signals.Detection {
		return signals.Detect(e.Signals().AS(asn), signals.ASConfig())
	})
}

// IODAAS returns (and caches) IODA's detection for an AS (nil below the
// reporting floor).
func (e *Env) IODAAS(asn netmodel.ASN) *signals.Detection {
	return e.iodaAS.Get(asn, func() *signals.Detection {
		return e.IODA().DetectAS(asn)
	})
}

// OurRegion returns (and caches) our regional detection.
func (e *Env) OurRegion(r netmodel.Region) *signals.Detection {
	return e.ourRegion.Get(r, func() *signals.Detection {
		rr := e.Classification().Regions[r]
		return signals.Detect(e.Signals().Region(rr, e.Classifier()), signals.RegionConfig())
	})
}

// IODARegion returns (and caches) IODA's regional detection.
func (e *Env) IODARegion(r netmodel.Region) *signals.Detection {
	return e.iodaReg.Get(r, func() *signals.Detection {
		return e.IODA().DetectRegion(r)
	})
}

// Warm materializes the whole pipeline up front: the store, then the
// classifier, signal builder, Trinocular baseline and power report, then the
// IODA platform and target set they feed, and finally every per-AS/per-region
// detection both systems report on. Experiments after a Warm only read
// caches.
func (e *Env) Warm() {
	e.Store()
	e.Classifier()
	e.Signals()
	e.Trinocular()
	e.PowerReport()
	e.IODA()
	e.TargetSet()
	e.WarmDetections()
}

// WarmDetections fills the per-AS and per-region detection caches for both
// systems across the worker pool.
func (e *Env) WarmDetections() {
	asns := e.TargetASNs()
	par.ForEach(len(asns), func(i int) {
		e.OurAS(asns[i])
		e.IODAAS(asns[i])
	})
	regions := netmodel.Regions()
	par.ForEach(len(regions), func(i int) {
		e.OurRegion(regions[i])
		e.IODARegion(regions[i])
	})
}

// PowerReport returns the Ukrenergo-like dataset, exercising the export →
// parse path (the analysis must consume the report, not ground truth).
func (e *Env) PowerReport() *power.Report {
	e.powerOnce.Do(func() {
		var buf bytes.Buffer
		if err := e.Scenario().Power.WriteReport(&buf); err != nil {
			panic(err)
		}
		rep, err := power.ParseReport(&buf)
		if err != nil {
			panic(err)
		}
		e.powerRep = rep
	})
	return e.powerRep
}

// RIPEEnds returns the delegation files at the campaign's two ends, the
// 2021 base and the last month's snapshot, each through the write → parse
// path (the churn analysis must read delegated files, not ground truth).
func (e *Env) RIPEEnds() (base, final *ripe.File) {
	e.ripeOnce.Do(func() {
		sc := e.Scenario()
		for i, f := range []*ripe.File{sc.RIPEBase(), sc.RIPESnapshot(sc.TL.NumMonths() - 1)} {
			var buf bytes.Buffer
			if _, err := f.WriteTo(&buf); err != nil {
				panic(err)
			}
			parsed, err := ripe.Parse(&buf)
			if err != nil {
				panic(err)
			}
			e.ripeEnds[i] = parsed
		}
	})
	return e.ripeEnds[0], e.ripeEnds[1]
}
