package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"countrymon"
	"countrymon/internal/campaign"
	"countrymon/internal/dataset"
	"countrymon/internal/faults"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/sim"
)

// roundsFlags are the flags only the -packet-rounds campaign reads; all zero
// when none of them was given.
type roundsFlags struct {
	n, vantages, quorum                  int
	faults, checkpoint, resume, roundLog string
}

// runRounds is the single-country campaign behind -packet-rounds: a
// countrymon.Monitor scans the first f.n rounds of the scenario's timeline
// over the simulated wire — a supervised fleet of -vantages vantages (one
// when 0), built by internal/campaign like a coordinated country's —
// against the Kherson Table-5 ASes, with optional per-vantage fault injection,
// checkpointing, resume and the round journal, and the Monitor's store is
// cross-checked against the fast generator's. SIGINT/SIGTERM stop the
// campaign at the next round boundary after a final checkpoint. seed and
// minCov are the analysis's -seed and -min-coverage. It returns the process
// exit code (0 lets the analysis run).
func (e *env) runRounds(sc *sim.Scenario, store *dataset.Store, f roundsFlags, seed uint64, minCov float64) int {
	start, interval := sc.TL.Start(), sc.TL.Interval()
	rounds := min(f.n, sc.TL.NumRounds())
	vantages := max(f.vantages, 1)
	profs, err := vantageProfiles(vantages, f.faults, start)
	if err != nil {
		e.log.Print(err)
		return 2
	}
	var prefixes []netmodel.Prefix
	for _, asn := range sim.KhersonASNs() {
		if as := sc.Space.Lookup(asn); as != nil {
			prefixes = append(prefixes, as.Prefixes...)
		}
	}

	var (
		fmu    sync.Mutex
		faulty []*faults.Transport
	)
	// wrap puts vantage vn's view of the simulated network behind the
	// vantage's fault profile when it has one. campaign names vantage i
	// "v<i>". The fleet keeps what it returns and re-arms it per scan, so
	// wrap runs once per kept transport and faulty holds each wrapper once,
	// its counters summing every scan it served.
	wrap := func(country, vn string, t scanner.Transport) scanner.Transport {
		vi, _ := strconv.Atoi(strings.TrimPrefix(vn, "v"))
		if profs[vi] == nil {
			return t
		}
		p := *profs[vi]
		p.Seed += uint64(vi) * 0x9e3779b9
		ftr := faults.NewTransport(t, nil, p)
		ftr.Observe(faults.NewMetrics(e.reg.Scope(country)))
		fmu.Lock()
		faulty = append(faulty, ftr)
		fmu.Unlock()
		return ftr
	}

	// The campaign's log lines read each round's outcome and checkpoints
	// off the bus; without -metrics the bus is the campaign's own.
	bus := e.bus
	if bus == nil {
		bus = obs.NewBus(0)
	}
	// Every vantage scans over networks it keeps, each re-armed at the
	// round's scheduled time; the monitor's own clock only walks the
	// timeline.
	opts := countrymon.Options{
		Clock:   scanner.NewVirtualClock(start),
		Targets: prefixes,
		Start:   start, Rounds: rounds, Interval: interval,
		Rate: scanner.DefaultRate * 10, Seed: seed, Country: sc.Country,
		CheckpointPath: f.checkpoint, ResumeFrom: f.resume, RoundLogPath: f.roundLog,
		MinCoverage: minCov,
		Registry:    e.reg, Bus: bus,
	}
	sup, err := campaign.NewFleet(vantages, f.quorum, opts.Rate, seed, e.reg, e.bus)
	if err == nil {
		opts.Fleet, err = campaign.JoinCountry(sup, sc.Country, sc, prefixes, 1, seed, wrap)
	}
	if err != nil {
		return e.fail("%v", err)
	}
	fleetNote := ""
	if f.vantages > 0 {
		fleetNote = fmt.Sprintf(", fleet of %d vantages", f.vantages)
	}
	mon, err := countrymon.New(opts)
	if err != nil {
		return e.refuse(err)
	}
	defer mon.Close()
	if f.resume != "" {
		e.log.Printf("resumed from %s at round %d of %d", f.resume, mon.Round(), rounds)
	}
	e.log.Printf("packet-level campaign: %d /24 blocks, %d rounds every %v through the Monitor%s",
		mon.Store().NumBlocks(), rounds, interval, fleetNote)

	ctx, stop := interruptible()
	rc := countrymon.RunConfig{PreRound: sc.PreRound(mon.SetRouted)}
	for mon.NextRound() {
		r, seq := mon.Round(), bus.Seq()
		var stats countrymon.Stats
		stats, err = mon.Step(ctx, rc)
		note := ""
		for _, ev := range bus.Since(seq) {
			switch p := ev.Fields.(type) {
			case countrymon.CheckpointEvent:
				e.log.Printf("checkpoint: %d rounds -> %s", p.Round, p.Path)
			case countrymon.RoundMissingEvent:
				note = missingNote[p.Reason]
			}
		}
		if err != nil {
			break
		}
		if note == "" && mon.Store().Coverage(r) < 1 {
			note = fmt.Sprintf("  [partial: %.1f%% coverage]", 100*mon.Store().Coverage(r))
		}
		e.log.Printf("round %3d: sent %d valid %d%s", r, stats.Sent, stats.Valid, note)
	}
	stop()
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		msg := "no checkpoint configured"
		if f.checkpoint != "" {
			msg = "checkpoint written to " + f.checkpoint
		}
		e.log.Printf("countrymon: interrupted at round %d of %d (%s)", mon.Round(), rounds, msg)
		return 130
	default:
		return e.fail("campaign: %v", err)
	}

	if len(faulty) > 0 {
		var c faults.Counters
		for _, t := range faulty {
			tc := t.Counters()
			c.SendErrors += tc.SendErrors
			c.Drops += tc.Drops
			c.RecvErrors += tc.RecvErrors
			c.Truncated += tc.Truncated
			c.Blackouts += tc.Blackouts
		}
		e.log.Printf("injected faults: %d send errors, %d drops, %d recv errors, %d truncated, %d silenced reads",
			c.SendErrors, c.Drops, c.RecvErrors, c.Truncated, c.Blackouts)
	}
	rep := mon.FleetReport()
	if rep.Suspects > 0 {
		e.log.Printf("fleet fusion: %d suspect blocks (%d alive, %d down, %d held), %d steals",
			rep.Suspects, rep.FusedAlive, rep.FusedDown, rep.FusedHeld, rep.Steals)
	}

	// Every fully covered round must read exactly what the fast generator
	// computed for it; rounds below the gate are counted as failures instead
	// (the scenario's own vantage outages are neither).
	got := mon.Store()
	checked, mismatches, low := 0, 0, 0
	for r := 0; r < rounds; r++ {
		switch {
		case sc.Missing[r]:
		case got.Missing(r) || got.Coverage(r) < minCov:
			low++
		case got.Done(r) && got.Coverage(r) >= 1:
			for i, blk := range got.Blocks() {
				if bi := store.BlockIndex(blk); bi >= 0 {
					checked++
					if got.Resp(i, r) != store.Resp(bi, r) {
						mismatches++
					}
				}
			}
		}
	}
	e.log.Printf("  %d block-rounds cross-checked, %d mismatches (scanner vs fast generator)", checked, mismatches)

	switch {
	case low > 0:
		e.log.Printf("countrymon: %d of %d rounds ended below the %.0f%% coverage threshold (gated from signals)",
			low, rounds, 100*minCov)
		return 1
	case rep.Degraded():
		e.log.Printf("countrymon: campaign completed degraded: quarantined=%v degraded_rounds=%d self_outages=%d",
			rep.Quarantined, rep.DegradedRounds, rep.SelfOutages)
		return 4
	}
	e.log.Printf("campaign complete: all %d rounds at full coverage", rounds)
	return 0
}

// missingNote labels a round recorded missing by its round_missing event's
// reason.
var missingNote = map[string]string{
	"fleet_self_outage": "  [fleet self-outage: recorded missing]",
}

// vantageProfiles resolves -faults into one fault profile per vantage, nil
// for a clean one: a single profile applies to every vantage, and a
// semicolon-separated list assigns profiles in vantage order (an empty
// segment leaves that vantage clean). Window offsets count from base.
func vantageProfiles(n int, spec string, base time.Time) ([]*faults.Profile, error) {
	segs := strings.Split(spec, ";")
	if len(segs) == 1 { // one profile: every vantage's
		for len(segs) < n {
			segs = append(segs, spec)
		}
	}
	if len(segs) > n {
		return nil, fmt.Errorf("-faults has %d profiles for %d vantages", len(segs), n)
	}
	profs := make([]*faults.Profile, n)
	for i, seg := range segs {
		if seg = strings.TrimSpace(seg); seg == "" {
			continue
		}
		p, err := faults.ParseProfile(seg, base)
		if err != nil {
			return nil, fmt.Errorf("fault profile of vantage %d: %w", i, err)
		}
		profs[i] = &p
	}
	return profs, nil
}
