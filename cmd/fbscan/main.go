// Command fbscan is the standalone full-block scanner: probe a set of CIDR
// targets once and print per-block responsiveness, ZMap-style.
//
// Two transports are available without privileges:
//
//	-mode sim   probe the simulated Ukraine scenario (default)
//	-mode udp   probe through a UDP tunnel wire-server started in-process
//	            (real sockets, real timing)
//
// -faults injects scripted and probabilistic transport faults (see
// internal/faults) to exercise the scanner's retry and salvage machinery.
// -metrics serves the live observability endpoints (/metrics Prometheus text
// or JSON, /events SSE or long-poll) while the scan runs. Multi-round
// campaigns — checkpoints, the round journal, vantage fleets — are
// `countrymon -packet-rounds N`.
//
// Usage:
//
//	fbscan [-mode sim|udp] [-rate 8000] [-at 2022-05-01T12:00:00Z]
//	       [-seed 1] [-scale 0.05] [-blocklist file] [-shard i -shards n]
//	       [-probes 1] [-faults spec] [-min-coverage 0.8]
//	       [-metrics :9090] [cidr ...]
//
// Exit codes:
//
//	0   the scan covered at least -min-coverage of its targets
//	1   the scan ended below -min-coverage, or a hard failure
//	2   bad flags or arguments
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/sim"
	"countrymon/internal/simnet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters: it parses args,
// scans once, prints the per-block table to stdout and everything else to
// stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "", 0)
	fs := flag.NewFlagSet("fbscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "sim", "transport: sim or udp")
	rate := fs.Int("rate", scanner.DefaultRate, "probe rate (packets/second)")
	atStr := fs.String("at", "2022-05-01T12:00:00Z", "simulated scan time (RFC 3339)")
	seed := fs.Uint64("seed", 1, "scan + scenario seed")
	scale := fs.Float64("scale", 0.05, "scenario scale")
	blocklist := fs.String("blocklist", "", "ZMap-style exclusion file")
	shard := fs.Int("shard", 0, "this vantage's shard index")
	shards := fs.Int("shards", 1, "total shards")
	probes := fs.Int("probes", 1, "probes per address (retransmissions)")
	faultSpec := fs.String("faults", "", "fault-injection profile, e.g. \"seed=7,senderr=0.01,blackout=24h+8h\"")
	minCov := fs.Float64("min-coverage", 0.8, "round coverage below this fraction is a failure")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /events on this address (e.g. :9090)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// usage reports a bad flag value or argument the way the flag package
	// reports an unknown flag.
	usage := func(format string, a ...any) int {
		logger.Printf(format, a...)
		return 2
	}
	fail := func(err error) int {
		logger.Print(err)
		return 1
	}

	if *mode != "sim" && *mode != "udp" {
		return usage("unknown mode %q", *mode)
	}
	at, err := time.Parse(time.RFC3339, *atStr)
	if err != nil {
		return usage("bad -at: %v", err)
	}
	prof, err := faults.ParseProfile(*faultSpec, at)
	if err != nil {
		return usage("bad -faults: %v", err)
	}
	var prefixes []netmodel.Prefix
	for _, arg := range fs.Args() {
		p, err := netmodel.ParsePrefix(arg)
		if err != nil {
			return usage("bad target %q: %v", arg, err)
		}
		prefixes = append(prefixes, p)
	}

	var (
		reg *obs.Registry
		bus *obs.Bus
	)
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		bus = obs.NewBus(0)
		go func() {
			logger.Printf("observability on http://%s/metrics and /events", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, obs.Handler(reg, bus)); err != nil {
				logger.Printf("metrics server: %v", err)
			}
		}()
	}

	var exclude []netmodel.Prefix
	if *blocklist != "" {
		f, err := os.Open(*blocklist)
		if err != nil {
			return fail(err)
		}
		exclude, err = scanner.ParseBlocklist(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		logger.Printf("excluding %d ranges from %s", len(exclude), *blocklist)
	}

	sc := sim.MustBuild(sim.Config{Seed: *seed, Scale: *scale})
	if len(prefixes) == 0 {
		// Default: the Kherson Table-5 address space.
		for _, asn := range sim.KhersonASNs() {
			if as := sc.Space.Lookup(asn); as != nil {
				prefixes = append(prefixes, as.Prefixes...)
			}
		}
	}
	targets, err := scanner.NewTargetSet(prefixes, exclude)
	if err != nil {
		return fail(err)
	}
	logger.Printf("scanning %d /24 blocks (%d addresses) at %v, %d pps, mode=%s",
		targets.NumBlocks(), targets.Len(), at, *rate, *mode)

	local := netmodel.MustParseAddr("198.51.100.1")
	cfg := scanner.Config{
		Rate: *rate, Seed: *seed, Epoch: 1, Cooldown: 4 * time.Second,
		Shard: *shard, Shards: *shards, ProbesPerAddr: *probes,
		Metrics: scanner.NewMetrics(reg), Events: bus,
	}
	// wrap layers fault injection over the scan's transport.
	var faulty *faults.Transport
	wrap := func(tr scanner.Transport, clock scanner.Clock) (scanner.Transport, scanner.Clock) {
		if *faultSpec == "" {
			return tr, clock
		}
		faulty = faults.NewTransport(tr, clock, prof)
		faulty.Observe(faults.NewMetrics(reg))
		return faulty, faulty
	}

	var rd *scanner.RoundData
	switch *mode {
	case "sim":
		net := simnet.New(local, sc, at)
		tr, clock := wrap(net, net)
		cfg.Clock = clock
		rd, err = scanner.New(tr, cfg).Run(targets)
	case "udp":
		srv, serr := simnet.NewWireServer("127.0.0.1:0", sc)
		if serr != nil {
			return fail(serr)
		}
		defer srv.Close()
		cfg.Cooldown = 2 * time.Second
		tun, derr := simnet.DialUDP(srv.Addr(), local)
		if derr != nil {
			return fail(derr)
		}
		defer tun.Close()
		tr, _ := wrap(tun, nil)
		rd, err = scanner.New(tr, cfg).Run(targets)
	}
	if err != nil {
		return fail(err)
	}
	if faulty != nil {
		c := faulty.Counters()
		logger.Printf("injected faults: %d send errors, %d drops, %d recv errors, %d truncated, %d silenced reads",
			c.SendErrors, c.Drops, c.RecvErrors, c.Truncated, c.Blackouts)
	}

	fmt.Fprintf(stdout, "%-20s %6s %9s\n", "block", "resp", "mean RTT")
	for i := range rd.Blocks {
		br := &rd.Blocks[i]
		if br.RespCount == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%-20s %6d %9v\n", br.Block, br.RespCount, br.MeanRTT().Round(time.Millisecond))
	}
	st := rd.Stats
	fmt.Fprintf(stdout, "\nsent %d, valid %d (%.1f%%), dup %d, invalid %d, non-echo %d, elapsed %v\n",
		st.Sent, st.Valid, 100*float64(st.Valid)/float64(st.Sent), st.Duplicates, st.Invalid, st.NonEcho,
		st.Elapsed.Round(time.Millisecond))
	if st.SendErrors > 0 || st.Retries > 0 || st.RecvErrors > 0 {
		fmt.Fprintf(stdout, "resilience: %d retries, %d probes abandoned, %d receive errors\n",
			st.Retries, st.SendErrors, st.RecvErrors)
	}
	if cov := rd.Coverage(); rd.Partial || cov < *minCov {
		fmt.Fprintf(stderr, "fbscan: round covered %.1f%% of %d targets (threshold %.0f%%)\n",
			100*cov, rd.ShardTargets, 100**minCov)
		if cov < *minCov {
			return 1
		}
	}
	return 0
}
