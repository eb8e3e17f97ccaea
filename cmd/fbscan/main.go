// Command fbscan is the standalone full-block scanner: probe a set of CIDR
// targets once and print per-block responsiveness, ZMap-style.
//
// Two transports are available without privileges:
//
//	-mode sim   probe the simulated Ukraine scenario (default)
//	-mode udp   probe through a UDP tunnel wire-server started in-process
//	            (real sockets, real timing)
//
// With -rounds N (N > 1, sim mode) fbscan runs a multi-round campaign
// through Monitor.Run, optionally checkpointing to -checkpoint and resuming
// a killed campaign with -resume; Ctrl-C stops the campaign at the next
// round boundary after writing a final checkpoint. -faults injects scripted
// and probabilistic transport faults (see internal/faults) to exercise the
// recovery machinery. -metrics serves the live observability endpoints
// (/metrics Prometheus text or JSON, /events SSE or long-poll) while the
// scan runs.
//
// With -vantages N (campaign mode) the rounds run over a supervised
// multi-vantage fleet: per-vantage circuit breakers, same-round shard
// failover and k-of-n (-quorum) corroboration of suspect block outages.
// -vantage-faults scripts a distinct fault profile per vantage
// (semicolon-separated, in vantage order) so individual vantages can be
// blacked out, stalled or flapped while the rest of the fleet keeps the
// measurement honest.
//
// Usage:
//
//	fbscan [-mode sim|udp] [-rate 8000] [-at 2022-05-01T12:00:00Z]
//	       [-seed 1] [-scale 0.05] [-faults spec] [-rounds N]
//	       [-vantages N] [-quorum k] [-vantage-faults "spec;spec;..."]
//	       [-checkpoint file] [-resume file] [-roundlog file]
//	       [-stream-signals] [-min-coverage 0.8]
//	       [-metrics :9090] [cidr ...]
//
// Exit codes:
//
//	0   success — every round at full coverage, fleet (if any) healthy
//	1   a round (or the scan) ended below -min-coverage, or a hard failure
//	3   -resume named a checkpoint of a different campaign
//	    (countrymon.ResumeMismatchError)
//	4   campaign completed degraded: a vantage was quarantined, a round ran
//	    below -quorum, or the fleet itself went dark for a round
//	130 interrupted by signal
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"countrymon"
	"countrymon/internal/faults"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/sim"
	"countrymon/internal/simnet"
)

// serveObs serves live observability — /metrics (Prometheus text or JSON)
// and /events (SSE or long-poll) — on addr for the lifetime of the process.
func serveObs(addr string, reg *obs.Registry, bus *obs.Bus) {
	log.Printf("observability on http://%s/metrics and /events", addr)
	if err := http.ListenAndServe(addr, obs.Handler(reg, bus)); err != nil {
		log.Printf("metrics server: %v", err)
	}
}

func main() {
	log.SetFlags(0)
	mode := flag.String("mode", "sim", "transport: sim or udp")
	rate := flag.Int("rate", scanner.DefaultRate, "probe rate (packets/second)")
	atStr := flag.String("at", "2022-05-01T12:00:00Z", "simulated scan time (RFC 3339)")
	seed := flag.Uint64("seed", 1, "scan + scenario seed")
	scale := flag.Float64("scale", 0.05, "scenario scale")
	blocklist := flag.String("blocklist", "", "ZMap-style exclusion file")
	shard := flag.Int("shard", 0, "this vantage's shard index")
	shards := flag.Int("shards", 1, "total shards")
	probes := flag.Int("probes", 1, "probes per address (retransmissions)")
	faultSpec := flag.String("faults", "", "fault-injection profile, e.g. \"seed=7,senderr=0.01,blackout=24h+8h\"")
	vantages := flag.Int("vantages", 0, "run the campaign over a supervised fleet of N vantages (campaign mode only)")
	quorum := flag.Int("quorum", 0, "k of the fleet's k-of-n outage corroboration (0 = min(2, vantages))")
	vantageFaults := flag.String("vantage-faults", "", "per-vantage fault profiles, semicolon-separated in vantage order (overrides -faults for the fleet)")
	rounds := flag.Int("rounds", 1, "campaign length in rounds (>1 runs the monitor, sim mode only)")
	interval := flag.Duration("interval", 2*time.Hour, "campaign probing interval")
	checkpoint := flag.String("checkpoint", "", "campaign checkpoint file (atomic, written periodically)")
	resume := flag.String("resume", "", "resume a killed campaign from this checkpoint file")
	roundLog := flag.String("roundlog", "", "append-only per-round journal (replayed over the checkpoint on restart)")
	streamSignals := flag.Bool("stream-signals", false, "fold each round into warm signal series instead of rebuilding on every query")
	country := flag.String("country", "", "ISO country code for the campaign's classifier and labels (default: the scenario's)")
	minCov := flag.Float64("min-coverage", 0.8, "round coverage below this fraction is a failure")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /events on this address (e.g. :9090)")
	flag.Parse()

	var (
		reg *obs.Registry
		bus *obs.Bus
	)
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		bus = obs.NewBus(0)
		go serveObs(*metricsAddr, reg, bus)
	}

	var exclude []netmodel.Prefix
	if *blocklist != "" {
		f, err := os.Open(*blocklist)
		if err != nil {
			log.Fatal(err)
		}
		exclude, err = scanner.ParseBlocklist(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("excluding %d ranges from %s", len(exclude), *blocklist)
	}

	at, err := time.Parse(time.RFC3339, *atStr)
	if err != nil {
		log.Fatalf("bad -at: %v", err)
	}
	prof, err := faults.ParseProfile(*faultSpec, at)
	if err != nil {
		log.Fatal(err)
	}
	injecting := *faultSpec != ""

	sc := sim.MustBuild(sim.Config{Seed: *seed, Scale: *scale})
	var prefixes []netmodel.Prefix
	if flag.NArg() > 0 {
		for _, arg := range flag.Args() {
			p, err := netmodel.ParsePrefix(arg)
			if err != nil {
				log.Fatalf("bad target %q: %v", arg, err)
			}
			prefixes = append(prefixes, p)
		}
	} else {
		// Default: the Kherson Table-5 address space.
		for _, asn := range sim.KhersonASNs() {
			if as := sc.Space.Lookup(asn); as != nil {
				prefixes = append(prefixes, as.Prefixes...)
			}
		}
	}

	if *vantages > 0 && *shards > 1 {
		log.Fatal("-vantages (supervised fleet) and -shards (manual sharding) are mutually exclusive")
	}
	if *vantageFaults != "" && *vantages <= 0 {
		log.Fatal("-vantage-faults needs -vantages")
	}

	if *rounds > 1 {
		if *mode != "sim" {
			log.Fatal("campaign mode (-rounds > 1) requires -mode sim")
		}
		cc := *country
		if cc == "" {
			cc = sc.Country
		}
		runCampaign(sc, prefixes, exclude, at, prof, injecting,
			*rounds, *interval, *rate, *seed, cc, *checkpoint, *resume, *roundLog,
			*streamSignals, *minCov,
			*vantages, *quorum, *vantageFaults, reg, bus)
		return
	}
	if *country != "" {
		log.Fatal("-country needs campaign mode (-rounds > 1)")
	}
	if *checkpoint != "" || *resume != "" || *roundLog != "" {
		log.Fatal("-checkpoint/-resume/-roundlog need campaign mode (-rounds > 1)")
	}
	if *vantages > 0 {
		log.Fatal("-vantages needs campaign mode (-rounds > 1)")
	}

	targets, err := scanner.NewTargetSet(prefixes, exclude)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("scanning %d /24 blocks (%d addresses) at %v, %d pps, mode=%s",
		targets.NumBlocks(), targets.Len(), at, *rate, *mode)

	local := netmodel.MustParseAddr("198.51.100.1")
	cfg := scanner.Config{
		Rate: *rate, Seed: *seed, Epoch: 1, Cooldown: 4 * time.Second,
		Shard: *shard, Shards: *shards, ProbesPerAddr: *probes,
		Metrics: scanner.NewMetrics(reg), Events: bus,
	}
	// wrap layers fault injection over the scan's transport.
	var faultTrs []*faults.Transport
	wrap := func(tr scanner.Transport, clock scanner.Clock) (scanner.Transport, scanner.Clock) {
		if !injecting {
			return tr, clock
		}
		ftr := faults.NewTransport(tr, clock, prof)
		ftr.Observe(faults.NewMetrics(reg))
		faultTrs = append(faultTrs, ftr)
		return ftr, ftr
	}

	var rd *scanner.RoundData
	switch *mode {
	case "sim":
		net := simnet.New(local, sc.Responder(), at)
		tr, clock := wrap(net, net)
		cfg.Clock = clock
		rd, err = scanner.New(tr, cfg).Run(targets)
	case "udp":
		srv, serr := simnet.NewWireServer("127.0.0.1:0", sc.Responder())
		if serr != nil {
			log.Fatal(serr)
		}
		defer srv.Close()
		cfg.Cooldown = 2 * time.Second
		tun, derr := simnet.DialUDP(srv.Addr(), local)
		if derr != nil {
			log.Fatal(derr)
		}
		defer tun.Close()
		tr, _ := wrap(tun, nil)
		rd, err = scanner.New(tr, cfg).Run(targets)
	default:
		log.Fatalf("unknown mode %q", *mode)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	if c := sumCounters(faultTrs); injecting {
		log.Printf("injected faults: %d send errors, %d drops, %d recv errors, %d truncated, %d silenced reads",
			c.SendErrors, c.Drops, c.RecvErrors, c.Truncated, c.Blackouts)
	}

	fmt.Printf("%-20s %6s %9s\n", "block", "resp", "mean RTT")
	for i := range rd.Blocks {
		br := &rd.Blocks[i]
		if br.RespCount == 0 {
			continue
		}
		fmt.Printf("%-20s %6d %9v\n", br.Block, br.RespCount, br.MeanRTT().Round(time.Millisecond))
	}
	st := rd.Stats
	fmt.Printf("\nsent %d, valid %d (%.1f%%), dup %d, invalid %d, non-echo %d, elapsed %v\n",
		st.Sent, st.Valid, 100*float64(st.Valid)/float64(st.Sent), st.Duplicates, st.Invalid, st.NonEcho,
		st.Elapsed.Round(time.Millisecond))
	if st.SendErrors > 0 || st.Retries > 0 || st.RecvErrors > 0 {
		fmt.Printf("resilience: %d retries, %d probes abandoned, %d receive errors\n",
			st.Retries, st.SendErrors, st.RecvErrors)
	}
	if cov := rd.Coverage(); rd.Partial || cov < *minCov {
		fmt.Fprintf(os.Stderr, "fbscan: round covered %.1f%% of %d targets (threshold %.0f%%)\n",
			100*cov, rd.ShardTargets, 100**minCov)
		if cov < *minCov {
			os.Exit(1)
		}
	}
}

// sumCounters aggregates injected-fault tallies across fault transports.
func sumCounters(trs []*faults.Transport) faults.Counters {
	var sum faults.Counters
	for _, t := range trs {
		c := t.Counters()
		sum.SendErrors += c.SendErrors
		sum.Drops += c.Drops
		sum.RecvErrors += c.RecvErrors
		sum.Truncated += c.Truncated
		sum.Blackouts += c.Blackouts
	}
	return sum
}

// vclock is a standalone virtual clock for fleet campaigns, where no single
// vantage transport owns the monitor's timeline.
type vclock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *vclock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *vclock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// runCampaign drives a multi-round scan through Monitor.Run, with optional
// checkpointing, resume, fault injection, a supervised vantage fleet and
// live observability. SIGINT/SIGTERM stop the campaign at the next round
// boundary after a final checkpoint.
func runCampaign(sc *sim.Scenario, prefixes, exclude []netmodel.Prefix, at time.Time,
	prof faults.Profile, injecting bool, rounds int, interval time.Duration,
	rate int, seed uint64, country, checkpoint, resume, roundLog string,
	streamSignals bool, minCov float64,
	vantages, quorum int, vantageFaults string,
	reg *obs.Registry, bus *obs.Bus) {

	local := netmodel.MustParseAddr("198.51.100.1")
	opts := countrymon.Options{
		Targets: prefixes, Exclude: exclude,
		Start: at, Rounds: rounds, Interval: interval,
		Rate: rate, Seed: seed, Country: country,
		CheckpointPath: checkpoint, ResumeFrom: resume,
		RoundLogPath: roundLog, StreamSignals: streamSignals,
		MinCoverage: minCov,
		Registry:    reg, Bus: bus,
	}
	var (
		fmu      sync.Mutex
		faultTrs []*faults.Transport
	)
	var tr countrymon.Transport
	if vantages > 0 {
		// Supervised fleet: every vantage builds fresh per-round networks
		// anchored at the round's scheduled time; the monitor advances a
		// standalone virtual clock between rounds.
		profs := vantageProfiles(vantages, vantageFaults, prof, injecting, at)
		injecting = injecting || vantageFaults != ""
		opts.Clock = &vclock{now: at}
		opts.Quorum = quorum
		for i := 0; i < vantages; i++ {
			vp := profs[i]
			vi := i
			opts.Vantages = append(opts.Vantages, countrymon.VantageSpec{
				Name: fmt.Sprintf("v%d", i),
				Transport: func(round int, rat time.Time) (countrymon.Transport, countrymon.Clock, error) {
					net := simnet.New(local, sc.Responder(), rat)
					if vp == nil {
						return net, net, nil
					}
					p := *vp
					p.Seed += uint64(vi) * 0x9e3779b9
					ftr := faults.NewTransport(net, nil, p)
					ftr.Observe(faults.NewMetrics(reg))
					fmu.Lock()
					faultTrs = append(faultTrs, ftr)
					fmu.Unlock()
					return ftr, ftr, nil
				},
			})
		}
	} else {
		net := simnet.New(local, sc.Responder(), at)
		tr = net
		if injecting {
			ftr := faults.NewTransport(net, nil, prof)
			ftr.Observe(faults.NewMetrics(reg))
			faultTrs = append(faultTrs, ftr)
			tr = ftr
		}
		opts.Transport = tr
	}
	mon, err := countrymon.New(opts)
	if err == nil {
		defer mon.Close()
	}
	if err != nil {
		var mm *countrymon.ResumeMismatchError
		if errors.As(err, &mm) {
			log.Printf("fbscan: %v", mm)
			log.Printf("fbscan: campaign wants %s with %d blocks; start a fresh checkpoint or fix the options",
				mm.WantTimeline, mm.WantBlocks)
			os.Exit(3)
		}
		log.Fatal(err)
	}
	if resume != "" {
		log.Printf("resumed from %s at round %d of %d", resume, mon.Round(), rounds)
	}
	fleetNote := ""
	if vantages > 0 {
		fleetNote = fmt.Sprintf(", fleet of %d vantages", vantages)
	}
	log.Printf("campaign: %d /24 blocks, %d rounds every %v, mode=sim%s", mon.Store().NumBlocks(), rounds, interval, fleetNote)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = mon.Run(ctx, countrymon.RunConfig{
		Hooks: countrymon.Hooks{
			OnRound: func(r int, stats countrymon.Stats) {
				note := ""
				switch {
				case mon.Store().Missing(r):
					note = "  [receive path dead: recorded missing]"
				case mon.Store().Coverage(r) < 1:
					note = fmt.Sprintf("  [partial: %.1f%% coverage]", 100*mon.Store().Coverage(r))
				}
				log.Printf("round %3d: sent %d valid %d%s", r, stats.Sent, stats.Valid, note)
			},
			OnCheckpoint: func(round int, path string) {
				log.Printf("checkpoint: %d rounds -> %s", round, path)
			},
		},
	})
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		msg := "no checkpoint configured"
		if checkpoint != "" {
			msg = "checkpoint written to " + checkpoint
		}
		log.Printf("fbscan: interrupted at round %d of %d (%s)", mon.Round(), rounds, msg)
		os.Exit(130)
	default:
		log.Fatalf("campaign: %v", err)
	}

	low := 0
	for r := 0; r < mon.Timeline().NumRounds(); r++ {
		if mon.Store().Missing(r) || mon.Store().Coverage(r) < minCov {
			low++
		}
	}
	if injecting {
		c := sumCounters(faultTrs)
		log.Printf("injected faults: %d send errors, %d drops, %d recv errors, %d truncated, %d silenced reads",
			c.SendErrors, c.Drops, c.RecvErrors, c.Truncated, c.Blackouts)
	}
	if low > 0 {
		fmt.Fprintf(os.Stderr, "fbscan: %d of %d rounds ended below the %.0f%% coverage threshold (gated from signals)\n",
			low, rounds, 100*minCov)
		os.Exit(1)
	}
	if rep, ok := mon.FleetReport(); ok {
		if rep.Suspects > 0 {
			log.Printf("fleet fusion: %d suspect blocks (%d alive, %d down, %d held), %d steals",
				rep.Suspects, rep.FusedAlive, rep.FusedDown, rep.FusedHeld, rep.Steals)
		}
		if rep.Degraded() {
			fmt.Fprintf(os.Stderr,
				"fbscan: campaign completed degraded: quarantined=%v degraded_rounds=%d self_outages=%d\n",
				rep.Quarantined, rep.DegradedRounds, rep.SelfOutages)
			os.Exit(4)
		}
	}
	log.Printf("campaign complete: all %d rounds at full coverage", rounds)
}

// vantageProfiles resolves the per-vantage fault profiles: -vantage-faults
// assigns profiles positionally (empty segments leave that vantage clean);
// otherwise the ambient -faults profile, if any, applies to every vantage.
func vantageProfiles(vantages int, spec string, ambient faults.Profile, injecting bool, base time.Time) []*faults.Profile {
	profs := make([]*faults.Profile, vantages)
	if spec == "" {
		if injecting {
			for i := range profs {
				p := ambient
				profs[i] = &p
			}
		}
		return profs
	}
	segs := strings.Split(spec, ";")
	if len(segs) > vantages {
		log.Fatalf("-vantage-faults has %d profiles for %d vantages", len(segs), vantages)
	}
	for i, seg := range segs {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		p, err := faults.ParseProfile(seg, base)
		if err != nil {
			log.Fatalf("-vantage-faults[%d]: %v", i, err)
		}
		profs[i] = &p
	}
	return profs
}
