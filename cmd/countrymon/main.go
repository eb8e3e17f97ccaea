// Command countrymon runs the end-to-end measurement pipeline on the
// simulated war scenario: generate (or load) a three-year campaign, classify
// ASes and blocks regionally, compute the three outage signals, and print a
// per-region and Kherson summary.
//
// Usage:
//
//	countrymon [-scale 0.12] [-interval 6] [-seed 1]
//	           [-save data.cmds] [-load data.cmds]
//	           [-region Kherson] [-as 25482] [-min-coverage 0.8]
//	           [-metrics :9090]
//	countrymon -packet-rounds N [-vantages N] [-quorum k]
//	           [-faults spec | -faults "spec;spec;..."]
//	           [-checkpoint file] [-resume file] [-roundlog file]
//	countrymon -countries UA,RO [-serve :8080] [-metrics :9090]
//	countrymon -config spec.json [-serve :8080]
//
// With -packet-rounds N the command first runs a packet-level campaign: a
// countrymon.Monitor scans the first N rounds of the scenario's timeline
// over the simulated wire (the Kherson Table-5 ASes) and its store is
// cross-checked against the fast generator ("0 mismatches"). -checkpoint,
// -resume and -roundlog make the campaign durable (Ctrl-C stops at the next
// round boundary after a final checkpoint), -vantages N runs the rounds over
// a supervised fleet of N vantages (internal/fleet: breakers, shard failover,
// k-of-n -quorum corroboration; without the flag, a fleet of one), and
// -faults injects transport faults
// (internal/faults; window offsets count from the scenario's start): one
// profile applies to every vantage, a semicolon-separated list scripts one
// per vantage in vantage order (an empty segment is a clean vantage). The
// vantages are built by internal/campaign exactly as a coordinated
// campaign's are.
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
//
// Exit codes:
//
//	0   success — every campaign round at full coverage, fleet healthy
//	1   a campaign round ended below -min-coverage, or a hard failure
//	2   bad flags
//	3   -resume or -load named a file of a different campaign
//	    (countrymon.ResumeMismatchError)
//	4   campaign completed degraded: a vantage was quarantined, a round ran
//	    below -quorum, or a scripted vantage outage was measured missing
//	130 interrupted by signal
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"countrymon"
	"countrymon/internal/analysis"
	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/regional"
	"countrymon/internal/render"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what every mode of the command shares: where output goes and the
// optional observability sinks.
type env struct {
	stdout io.Writer
	log    *log.Logger
	reg    *obs.Registry
	bus    *obs.Bus
}

// fail logs a hard failure and returns its exit code.
func (e *env) fail(format string, a ...any) int {
	e.log.Printf(format, a...)
	return 1
}

// refuse reports why a campaign or dataset could not be set up: exit 3 for a
// checkpoint or dataset of a different campaign, a hard failure otherwise.
func (e *env) refuse(err error) int {
	var mm *countrymon.ResumeMismatchError
	if !errors.As(err, &mm) {
		return e.fail("%v", err)
	}
	e.log.Print(mm)
	e.log.Printf("countrymon: this run is %s over %d blocks; use the options the file was written with, or start a fresh one",
		mm.WantTimeline, mm.WantBlocks)
	return 3
}

// interruptible returns a context that SIGINT or SIGTERM cancels, for the
// campaign loops: they stop at the next round boundary instead of dying
// mid-round. Release it as soon as the loop returns, so whatever runs next
// (the analysis, -serve) dies on a signal as usual.
func interruptible() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// run is main with its inputs and outputs as parameters: reports go to
// stdout, progress and diagnostics to stderr, and the result is the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	e := &env{stdout: stdout, log: log.New(stderr, "", 0)}
	fs := flag.NewFlagSet("countrymon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.12, "scenario scale (1.0 = paper scale)")
	interval := fs.Int("interval", 6, "probing interval in hours (paper: 2)")
	seed := fs.Uint64("seed", 1, "scenario seed")
	save := fs.String("save", "", "write the generated dataset to this file")
	load := fs.String("load", "", "load a dataset instead of generating")
	region := fs.String("region", "Kherson", "region to detail")
	asn := fs.Uint("as", 25482, "AS to detail")
	minCov := fs.Float64("min-coverage", signals.DefaultMinCoverage,
		"treat rounds below this probed-target fraction as missing")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /events on this address (e.g. :9090)")
	var pr roundsFlags
	fs.IntVar(&pr.n, "packet-rounds", 0, "first run an N-round packet-level campaign through the Monitor and cross-check it")
	fs.IntVar(&pr.vantages, "vantages", 0, "run the packet-level campaign over a supervised fleet of N vantages (0 = one)")
	fs.IntVar(&pr.quorum, "quorum", 0, "k of the fleet's k-of-n outage corroboration (0 = min(2, vantages))")
	fs.StringVar(&pr.faults, "faults", "", "campaign fault-injection profile for every vantage, e.g. \"seed=7,senderr=0.01,blackout=24h+8h\", or one per vantage, semicolon-separated in vantage order (an empty segment is a clean vantage)")
	fs.StringVar(&pr.checkpoint, "checkpoint", "", "campaign checkpoint file (atomic, written periodically)")
	fs.StringVar(&pr.resume, "resume", "", "resume a killed campaign from this checkpoint file")
	fs.StringVar(&pr.roundLog, "roundlog", "", "append-only per-round campaign journal (replayed over the checkpoint on restart)")
	countries := fs.String("countries", "", "run a coordinated multi-country campaign over these codes (e.g. UA,RO) on synthetic models")
	config := fs.String("config", "", "run a coordinated campaign from this campaign.Spec JSON file")
	serveAddr := fs.String("serve", "", "after a coordinated campaign, serve the country-scoped API on this address (e.g. :8080)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	coordinated := *countries != "" || *config != ""
	switch {
	case *countries != "" && *config != "":
		e.log.Print("-countries and -config are mutually exclusive")
		return 2
	case *serveAddr != "" && !coordinated:
		e.log.Print("-serve needs a coordinated campaign (-countries or -config)")
		return 2
	case pr.n <= 0 && pr != (roundsFlags{}):
		e.log.Print("-vantages, -quorum, -faults, -checkpoint, -resume and -roundlog need -packet-rounds")
		return 2
	}

	if *metricsAddr != "" {
		e.reg = obs.NewRegistry()
		e.bus = obs.NewBus(0)
		go func() {
			e.log.Printf("observability on http://%s/metrics and /events", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, obs.Handler(e.reg, e.bus)); err != nil {
				e.log.Printf("metrics server: %v", err)
			}
		}()
	}

	if coordinated {
		return e.runCoordinated(*countries, *config, *serveAddr)
	}

	cfg := sim.Config{Seed: *seed, Scale: *scale, Interval: time.Duration(*interval) * time.Hour}
	e.log.Printf("building scenario (scale %.2f, %dh rounds)...", *scale, *interval)
	sc := sim.MustBuild(cfg)
	e.log.Printf("  %d ASes, %d /24 blocks, %d rounds over %s → %s",
		sc.Space.NumASes(), sc.Space.NumBlocks(), sc.TL.NumRounds(),
		sc.TL.Start().Format("2006-01-02"), sc.TL.End().Format("2006-01-02"))

	var store *dataset.Store
	if *load != "" {
		var err error
		if store, err = dataset.Load(*load); err != nil {
			return e.fail("load: %v", err)
		}
		// The analysis below reads the file against the scenario's space and
		// geolocation: a dataset of another scale or interval would print a
		// plausible report about the wrong world.
		if err := countrymon.CheckResume(*load, store, sc.TL, sc.Space.Blocks()); err != nil {
			return e.refuse(err)
		}
		e.log.Printf("loaded %s: %d blocks × %d rounds", *load, store.NumBlocks(), store.Timeline().NumRounds())
	} else {
		e.log.Printf("generating three-year campaign...")
		t0 := time.Now()
		store = sc.GenerateStore(nil)
		e.log.Printf("  done in %v", time.Since(t0).Round(time.Millisecond))
	}
	if *save != "" {
		if err := store.SaveSync(*save); err != nil {
			return e.fail("save: %v", err)
		}
		fi, _ := os.Stat(*save)
		e.log.Printf("saved %s (%d bytes)", *save, fi.Size())
	}

	if pr.n > 0 {
		if code := e.runRounds(sc, store, pr, *seed, *minCov); code != 0 {
			return code
		}
	}

	e.log.Printf("classifying %d regions across %d months...", netmodel.NumRegions, store.Timeline().NumMonths())
	cl := regional.NewClassifier(sc.Space, sc.GeoDB(), store)
	res := cl.ClassifyAll(regional.DefaultParams())
	counts := res.NationalCounts()
	e.log.Printf("  regional %d / non-regional %d / temporal %d ASes",
		counts[regional.ASRegional], counts[regional.ASNonRegional], counts[regional.ASTemporal])

	b := signals.NewBuilderMinCoverage(store, sc.Space, *minCov)
	sigM := signals.NewMetrics(e.reg.Scope(sc.Country))
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
	e.log.Printf("data quality: %d vantage-outage rounds, %d partial rounds below %.0f%% coverage (both gated from signals)",
		outages, partial, 100**minCov)

	target, _ := netmodel.RegionByName(*region)
	var targetDet *signals.Detection
	fmt.Fprintf(stdout, "\n%-16s %8s %8s %10s\n", "region", "events", "rounds", "hours")
	var rows []render.LabeledDetection
	for _, r := range netmodel.Regions() {
		d := signals.DetectObs(b.Region(res.Regions[r], cl), signals.RegionConfig(), sigM)
		if r == target {
			targetDet = d
		}
		hours := float64(d.TotalRounds()) * tl.Interval().Hours()
		fl := ""
		if r.Frontline() {
			fl = "  [frontline]"
		}
		fmt.Fprintf(stdout, "%-16s %8d %8d %10.0f%s\n", r, len(d.Outages), d.TotalRounds(), hours, fl)
		rows = append(rows, render.LabeledDetection{Label: r.String(), Detection: d, Missing: effMissing})
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, render.Timeline(tl, rows, 100))

	if targetDet != nil {
		fmt.Fprintf(stdout, "\n-- %s outage events (regional signal) --\n", target)
		printOutages(stdout, targetDet, store, 15)
	}

	a := netmodel.ASN(*asn)
	if sc.Space.Lookup(a) != nil {
		fmt.Fprintf(stdout, "\n-- %v (%s) outage events --\n", a, sc.Space.Lookup(a).Name)
		d := signals.DetectObs(b.AS(a), signals.ASConfig(), sigM)
		printOutages(stdout, d, store, 15)
		daily := analysis.OutageHoursPerDay(d, tl)
		total := 0.0
		for _, v := range daily {
			total += v
		}
		fmt.Fprintf(stdout, "total outage hours: %.0f over %d events\n", total, len(d.Outages))
	}
	return 0
}

func printOutages(w io.Writer, d *signals.Detection, store *dataset.Store, limit int) {
	tl := store.Timeline()
	for i, o := range d.Outages {
		if i >= limit {
			fmt.Fprintf(w, "... and %d more\n", len(d.Outages)-limit)
			return
		}
		ongoing := ""
		if o.Ongoing {
			ongoing = " [ongoing/zero-BGP]"
		}
		fmt.Fprintf(w, "%s → %s  %-14s %v%s\n",
			tl.Time(o.Start).Format("2006-01-02 15:04"),
			tl.Time(o.End).Format("2006-01-02 15:04"),
			o.Duration(tl.Interval()).Round(time.Hour), o.Signals, ongoing)
	}
}
