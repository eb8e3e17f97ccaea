// Command countrymon runs the end-to-end measurement pipeline on the
// simulated war scenario: generate (or load) a three-year campaign, classify
// ASes and blocks regionally, compute the three outage signals, and print a
// per-region and Kherson summary.
//
// Usage:
//
//	countrymon [-scale 0.12] [-interval 6] [-seed 1]
//	           [-save data.cmds] [-load data.cmds]
//	           [-packet-rounds N] [-vantages N] [-quorum k]
//	           [-region Kherson] [-as 25482]
//	           [-metrics :9090]
//	countrymon -countries UA,RO [-serve :8080] [-metrics :9090]
//	countrymon -config spec.json [-serve :8080]
//
// With -vantages N the packet-level rounds run through a supervised
// multi-vantage fleet (internal/fleet) instead of a single scanner, with
// -quorum controlling the k-of-n corroboration of suspect block outages.
//
// With -countries (synthetic per-country models, equal budget shares) or
// -config (a full campaign.Spec document) the command instead runs a
// coordinated multi-country campaign: per-country Monitors sharing one
// vantage fleet, and -serve exposes the country-scoped query API
// (/v1/countries, /v1/countries/{cc}/series|outages|entities|events; the
// unprefixed legacy /v1/* routes alias the first country).
//
// With -metrics, live pipeline instrumentation — scanner counters, signal
// build/detect timings, outage counts — is served on /metrics (Prometheus
// text, ?format=json) and /events (SSE).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"countrymon/internal/analysis"
	"countrymon/internal/dataset"
	"countrymon/internal/fleet"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/regional"
	"countrymon/internal/render"
	"countrymon/internal/scanner"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
	"countrymon/internal/simnet"
)

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 0.12, "scenario scale (1.0 = paper scale)")
	interval := flag.Int("interval", 6, "probing interval in hours (paper: 2)")
	seed := flag.Uint64("seed", 1, "scenario seed")
	save := flag.String("save", "", "write the generated dataset to this file")
	load := flag.String("load", "", "load a dataset instead of generating")
	packetRounds := flag.Int("packet-rounds", 0, "additionally run N packet-level scan rounds through the real scanner")
	vantages := flag.Int("vantages", 0, "run packet-level rounds over a supervised fleet of N vantages")
	quorum := flag.Int("quorum", 0, "k of the fleet's k-of-n outage corroboration (0 = min(2, vantages))")
	region := flag.String("region", "Kherson", "region to detail")
	asn := flag.Uint("as", 25482, "AS to detail")
	minCov := flag.Float64("min-coverage", signals.DefaultMinCoverage,
		"treat rounds below this probed-target fraction as missing")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /events on this address (e.g. :9090)")
	countries := flag.String("countries", "", "run a coordinated multi-country campaign over these codes (e.g. UA,RO) on synthetic models")
	config := flag.String("config", "", "run a coordinated campaign from this campaign.Spec JSON file")
	serveAddr := flag.String("serve", "", "after a coordinated campaign, serve the country-scoped API on this address (e.g. :8080)")
	flag.Parse()

	var (
		reg *obs.Registry
		bus *obs.Bus
	)
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		bus = obs.NewBus(0)
		go func() {
			log.Printf("observability on http://%s/metrics and /events", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, obs.Handler(reg, bus)); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	if *countries != "" || *config != "" {
		runCoordinated(*countries, *config, *serveAddr, reg, bus)
		return
	}
	if *serveAddr != "" {
		log.Fatal("-serve needs a coordinated campaign (-countries or -config)")
	}

	cfg := sim.Config{Seed: *seed, Scale: *scale, Interval: time.Duration(*interval) * time.Hour}
	log.Printf("building scenario (scale %.2f, %dh rounds)...", *scale, *interval)
	sc := sim.MustBuild(cfg)
	log.Printf("  %d ASes, %d /24 blocks, %d rounds over %s → %s",
		sc.Space.NumASes(), sc.Space.NumBlocks(), sc.TL.NumRounds(),
		sc.TL.Start().Format("2006-01-02"), sc.TL.End().Format("2006-01-02"))

	var store *dataset.Store
	if *load != "" {
		var err error
		if store, err = dataset.Load(*load); err != nil {
			log.Fatalf("load: %v", err)
		}
		log.Printf("loaded %s: %d blocks × %d rounds", *load, store.NumBlocks(), store.Timeline().NumRounds())
	} else {
		log.Printf("generating three-year campaign...")
		t0 := time.Now()
		store = sc.GenerateStore(nil)
		log.Printf("  done in %v", time.Since(t0).Round(time.Millisecond))
	}
	if *save != "" {
		if err := store.Save(*save); err != nil {
			log.Fatalf("save: %v", err)
		}
		fi, _ := os.Stat(*save)
		log.Printf("saved %s (%d bytes)", *save, fi.Size())
	}

	if *packetRounds > 0 {
		runPacketRounds(sc, store, *packetRounds, *vantages, *quorum, reg, bus)
	}

	log.Printf("classifying %d regions across %d months...", netmodel.NumRegions, store.Timeline().NumMonths())
	cl := regional.NewClassifier(sc.Space, sc.GeoDB(), store)
	res := cl.ClassifyAll(regional.DefaultParams())
	counts := res.NationalCounts()
	log.Printf("  regional %d / non-regional %d / temporal %d ASes",
		counts[regional.ASRegional], counts[regional.ASNonRegional], counts[regional.ASTemporal])

	b := signals.NewBuilderMinCoverage(store, sc.Space, *minCov)
	sigM := signals.NewMetrics(reg)
	b.Observe(sigM)
	tl := store.Timeline()

	// Data-quality summary: rounds without usable observations.
	outages, partial := 0, 0
	for r := 0; r < tl.NumRounds(); r++ {
		switch {
		case store.Missing(r):
			outages++
		case store.Coverage(r) < *minCov:
			partial++
		}
	}
	effMissing := store.EffectiveMissing(*minCov)
	log.Printf("data quality: %d vantage-outage rounds, %d partial rounds below %.0f%% coverage (both gated from signals)",
		outages, partial, 100**minCov)

	fmt.Printf("\n%-16s %8s %8s %10s\n", "region", "events", "rounds", "hours")
	var rows []render.LabeledDetection
	for _, r := range netmodel.Regions() {
		d := signals.DetectObs(b.Region(res.Regions[r], cl), signals.RegionConfig(), sigM)
		hours := float64(d.TotalRounds()) * tl.Interval().Hours()
		fl := ""
		if r.Frontline() {
			fl = "  [frontline]"
		}
		fmt.Printf("%-16s %8d %8d %10.0f%s\n", r, len(d.Outages), d.TotalRounds(), hours, fl)
		rows = append(rows, render.LabeledDetection{Label: r.String(), Detection: d, Missing: effMissing})
	}
	fmt.Println()
	fmt.Print(render.Timeline(tl, rows, 100))

	target, _ := netmodel.RegionByName(*region)
	if target.Valid() {
		fmt.Printf("\n-- %s outage events (regional signal) --\n", target)
		d := signals.DetectObs(b.Region(res.Regions[target], cl), signals.RegionConfig(), sigM)
		printOutages(d, tl.Interval(), store, 15)
	}

	a := netmodel.ASN(*asn)
	if sc.Space.Lookup(a) != nil {
		fmt.Printf("\n-- %v (%s) outage events --\n", a, sc.Space.Lookup(a).Name)
		d := signals.DetectObs(b.AS(a), signals.ASConfig(), sigM)
		printOutages(d, tl.Interval(), store, 15)
		daily := analysis.OutageHoursPerDay(d, tl)
		total := 0.0
		for _, v := range daily {
			total += v
		}
		fmt.Printf("total outage hours: %.0f over %d events\n", total, len(d.Outages))
	}
}

func printOutages(d *signals.Detection, interval time.Duration, store *dataset.Store, limit int) {
	tl := store.Timeline()
	for i, o := range d.Outages {
		if i >= limit {
			fmt.Printf("... and %d more\n", len(d.Outages)-limit)
			return
		}
		ongoing := ""
		if o.Ongoing {
			ongoing = " [ongoing/zero-BGP]"
		}
		fmt.Printf("%s → %s  %-14s %v%s\n",
			tl.Time(o.Start).Format("2006-01-02 15:04"),
			tl.Time(o.End).Format("2006-01-02 15:04"),
			o.Duration(interval).Round(time.Hour), o.Signals, ongoing)
	}
}

// runPacketRounds replays the first N rounds through the real scanner over
// the simulated wire and cross-checks the fast generator's counts. With
// vantages > 0 the rounds run through a supervised multi-vantage fleet
// instead, whose fused output must agree just the same.
func runPacketRounds(sc *sim.Scenario, store *dataset.Store, n, vantages, quorum int, reg *obs.Registry, bus *obs.Bus) {
	log.Printf("packet-level validation: scanning %d rounds through the real scanner (vantages=%d)...", n, vantages)
	scanM := scanner.NewMetrics(reg)
	// Scan a tractable subset: the Kherson Table-5 ASes.
	var prefixes []netmodel.Prefix
	for _, asn := range sim.KhersonASNs() {
		if as := sc.Space.Lookup(asn); as != nil {
			prefixes = append(prefixes, as.Prefixes...)
		}
	}
	ts, err := scanner.NewTargetSet(prefixes, nil)
	if err != nil {
		log.Fatalf("targets: %v", err)
	}
	local := netmodel.MustParseAddr("198.51.100.1")
	baseCfg := scanner.Config{
		Rate: scanner.DefaultRate * 10, Seed: 99,
		Cooldown: 2 * time.Second,
		Metrics:  scanM, Events: bus,
	}
	var sup *fleet.Supervisor
	if vantages > 0 {
		specs := make([]fleet.Spec, vantages)
		for i := range specs {
			specs[i] = fleet.Spec{
				Name: fmt.Sprintf("v%d", i),
				Transport: func(round int, at time.Time) (scanner.Transport, scanner.Clock, error) {
					net := simnet.New(local, sc.Responder(), at)
					return net, net, nil
				},
			}
		}
		sup, err = fleet.New(specs, fleet.Config{
			Targets: ts, Scan: baseCfg, Quorum: quorum,
			Registry: reg, Bus: bus,
		})
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
	}
	mismatches, checked := 0, 0
	for round := 0; round < n && round < sc.TL.NumRounds(); round++ {
		if sc.Missing[round] {
			continue
		}
		at := sc.TL.Time(round)
		cfg := baseCfg
		cfg.Epoch = uint32(round + 1)
		var rd *scanner.RoundData
		if sup != nil {
			var rep *fleet.RoundReport
			rd, rep, err = sup.ScanRound(context.Background(), round, at, nil)
			if err == nil && rep.SelfOutage {
				log.Fatalf("fleet: self-outage in round %d with healthy sim vantages", round)
			}
		} else {
			net := simnet.New(local, sc.Responder(), at)
			cfg.Clock = net
			rd, err = scanner.New(net, cfg).Run(ts)
		}
		if err != nil {
			log.Fatalf("scan: %v", err)
		}
		for i := range rd.Blocks {
			bi := store.BlockIndex(rd.Blocks[i].Block)
			if bi < 0 {
				continue
			}
			checked++
			if int(rd.Blocks[i].RespCount) != store.Resp(bi, round) {
				mismatches++
			}
		}
	}
	log.Printf("  %d block-rounds cross-checked, %d mismatches (scanner vs fast generator)", checked, mismatches)
}
