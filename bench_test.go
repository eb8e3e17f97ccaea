package countrymon

// The benchmark harness regenerates every table and figure of the paper
// (DESIGN.md §4). Each benchmark warms the shared experiment environment
// once (scenario, store, classification, signals, baselines), then times the
// experiment's own computation and reports its headline metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers.

import (
	"sync"
	"testing"
	"time"

	"countrymon/internal/experiments"
	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/par"
	"countrymon/internal/scanner"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
	"countrymon/internal/simnet"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func benchEnvWarm(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		env := experiments.Default()
		// Materialize the heavyweight shared state outside the timer.
		env.Warm()
		benchEnv = env
	})
	return benchEnv
}

func benchExperiment(b *testing.B, id string) {
	env := benchEnvWarm(b)
	ex, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ResetTimer()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = ex.Run(env)
	}
	b.StopTimer()
	if rep == nil || len(rep.Lines) == 0 {
		b.Fatalf("%s produced no output", id)
	}
	for name, v := range rep.Metrics {
		b.ReportMetric(v, name)
	}
}

// benchWorkersExperiment times an experiment at one worker and at the
// default pool as two sub-benchmarks of one run, so what the fan-out buys on
// this host reads off adjacent lines.
func benchWorkersExperiment(b *testing.B, id string) {
	benchEnvWarm(b)
	b.Run("workers=1", func(b *testing.B) {
		b.Setenv(par.EnvWorkers, "1")
		benchExperiment(b, id)
	})
	b.Run("workers=all", func(b *testing.B) {
		b.Setenv(par.EnvWorkers, "")
		benchExperiment(b, id)
	})
}

// The two experiments that fan a grid out over internal/par: the F22
// classification sensitivity grid and the F24 severity-threshold sweep.

func BenchmarkSweepSensitivityASes(b *testing.B) { benchWorkersExperiment(b, "F22") }
func BenchmarkSweepSeverity(b *testing.B)        { benchWorkersExperiment(b, "F24") }

// --- Tables ---

func BenchmarkTable1MethodComparison(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkTable2Thresholds(b *testing.B)       { benchExperiment(b, "T2") }
func BenchmarkTable3Classification(b *testing.B)   { benchExperiment(b, "T3") }
func BenchmarkTable4Eligibility(b *testing.B)      { benchExperiment(b, "T4") }
func BenchmarkTable5KhersonASes(b *testing.B)      { benchExperiment(b, "T5") }

// --- Figures ---

func BenchmarkFigure1Churn(b *testing.B)              { benchExperiment(b, "F1") }
func BenchmarkFigure2BlockShare(b *testing.B)         { benchExperiment(b, "F2") }
func BenchmarkFigure3RegionalASes(b *testing.B)       { benchExperiment(b, "F3") }
func BenchmarkFigure4RegionalBlocks(b *testing.B)     { benchExperiment(b, "F4") }
func BenchmarkFigure5KhersonShares(b *testing.B)      { benchExperiment(b, "F5") }
func BenchmarkFigure6Responsiveness(b *testing.B)     { benchExperiment(b, "F6") }
func BenchmarkFigure7BlockChange(b *testing.B)        { benchExperiment(b, "F7") }
func BenchmarkFigure8RegionalOutages(b *testing.B)    { benchExperiment(b, "F8") }
func BenchmarkFigure9OutageHours(b *testing.B)        { benchExperiment(b, "F9") }
func BenchmarkFigure10PowerCorrelation(b *testing.B)  { benchExperiment(b, "F10") }
func BenchmarkFigure11KhersonEvents(b *testing.B)     { benchExperiment(b, "F11") }
func BenchmarkFigure12RTT(b *testing.B)               { benchExperiment(b, "F12") }
func BenchmarkFigure13StatusSeizure(b *testing.B)     { benchExperiment(b, "F13") }
func BenchmarkFigure14StatusBlocks(b *testing.B)      { benchExperiment(b, "F14") }
func BenchmarkFigure15CoverageCDF(b *testing.B)       { benchExperiment(b, "F15") }
func BenchmarkFigure16CommonOutages(b *testing.B)     { benchExperiment(b, "F16") }
func BenchmarkFigure17SignalShares(b *testing.B)      { benchExperiment(b, "F17") }
func BenchmarkFigure18Delegations(b *testing.B)       { benchExperiment(b, "F18") }
func BenchmarkFigure19ChurnAll(b *testing.B)          { benchExperiment(b, "F19") }
func BenchmarkFigure20ChurnV6(b *testing.B)           { benchExperiment(b, "F20") }
func BenchmarkFigure21DominantShare(b *testing.B)     { benchExperiment(b, "F21") }
func BenchmarkFigure22SensitivityASes(b *testing.B)   { benchExperiment(b, "F22") }
func BenchmarkFigure23SensitivityBlocks(b *testing.B) { benchExperiment(b, "F23") }
func BenchmarkFigure24SeveritySweep(b *testing.B)     { benchExperiment(b, "F24") }
func BenchmarkFigure25IODARegional(b *testing.B)      { benchExperiment(b, "F25") }
func BenchmarkFigure26IODAPower(b *testing.B)         { benchExperiment(b, "F26") }
func BenchmarkFigure27SignalStability(b *testing.B)   { benchExperiment(b, "F27") }
func BenchmarkFigure28KhersonFull(b *testing.B)       { benchExperiment(b, "F28") }
func BenchmarkHeadlineIntervalMiss(b *testing.B)      { benchExperiment(b, "H1") }
func BenchmarkHeadlineChurnByAS(b *testing.B)         { benchExperiment(b, "H2") }
func BenchmarkHeadlineRadiusPrecision(b *testing.B)   { benchExperiment(b, "H3") }
func BenchmarkHeadlinePassiveVsActive(b *testing.B)   { benchExperiment(b, "H4") }
func BenchmarkHeadlineIPv6Feasibility(b *testing.B)   { benchExperiment(b, "H5") }

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblationProbePolicy(b *testing.B)         { benchExperiment(b, "A1") }
func BenchmarkAblationRegionalOff(b *testing.B)         { benchExperiment(b, "A2") }
func BenchmarkAblationEligibility(b *testing.B)         { benchExperiment(b, "A3") }
func BenchmarkAblationInterval(b *testing.B)            { benchExperiment(b, "A4") }
func BenchmarkAblationAvailabilitySensing(b *testing.B) { benchExperiment(b, "A5") }
func BenchmarkAblationWindow(b *testing.B)              { benchExperiment(b, "A6") }

// --- Core primitive micro-benchmarks ---

func BenchmarkScannerRound(b *testing.B) {
	// One full-block scan round of a /20 (16 blocks, 4096 probes) over the
	// simulated wire in virtual time.
	resp := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		if dst.HostByte() < 64 {
			return simnet.Reply{Kind: simnet.EchoReply, RTT: 35 * time.Millisecond}
		}
		return simnet.Reply{Kind: simnet.NoReply}
	})
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{netmodel.MustParsePrefix("10.0.0.0/20")}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), resp, time.Unix(0, 0))
		sc := scanner.New(net, scanner.Config{Rate: 0, Seed: uint64(i), Epoch: uint32(i), Clock: net, Cooldown: time.Second})
		rd, err := sc.Run(ts)
		if err != nil {
			b.Fatal(err)
		}
		if rd.Stats.Valid != 16*64 {
			b.Fatalf("valid = %d", rd.Stats.Valid)
		}
	}
	b.ReportMetric(4096, "probes/op")
}

// benchScanRound runs full scan rounds of a /18 (64 blocks, 16384 probes)
// over the simulated wire and reports wall-clock probe throughput.
func benchScanRound(b *testing.B, metrics *scanner.Metrics) {
	resp := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		if dst.HostByte() < 64 {
			return simnet.Reply{Kind: simnet.EchoReply, RTT: 35 * time.Millisecond}
		}
		return simnet.Reply{Kind: simnet.NoReply}
	})
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{netmodel.MustParsePrefix("10.0.0.0/18")}, nil)
	if err != nil {
		b.Fatal(err)
	}
	local := netmodel.MustParseAddr("198.51.100.1")
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var probes uint64
	for i := 0; i < b.N; i++ {
		net := simnet.New(local, resp, time.Unix(0, 0))
		rd, err := scanner.New(net, scanner.Config{Rate: -1, Seed: uint64(i) + 1, Epoch: uint32(i),
			Clock: net, Cooldown: time.Second, Metrics: metrics}).Run(ts)
		if err != nil {
			b.Fatal(err)
		}
		if rd.Stats.Valid != 64*64 {
			b.Fatalf("valid = %d", rd.Stats.Valid)
		}
		probes += rd.Stats.Sent
	}
	b.StopTimer()
	if wall := time.Since(start).Seconds(); wall > 0 {
		b.ReportMetric(float64(probes)/wall, "probes_per_sec")
	}
}

// BenchmarkScanRound is the registry-detached baseline: the instrumentation
// sites are compiled in but every instrument is nil, so the pair with
// BenchmarkScanRoundMetrics pins the disabled-path overhead (<3% budget).
func BenchmarkScanRound(b *testing.B) { benchScanRound(b, nil) }

// BenchmarkScanRoundMetrics runs the same round with a live registry
// attached — what a campaign under -metrics pays.
func BenchmarkScanRoundMetrics(b *testing.B) {
	benchScanRound(b, scanner.NewMetrics(obs.NewRegistry()))
}

func BenchmarkICMPEncodeDecode(b *testing.B) {
	src := netmodel.MustParseAddr("198.51.100.1")
	dst := netmodel.MustParseAddr("91.198.4.7")
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt := icmp.AppendMarshalIPv4(nil, icmp.IPv4Header{TTL: 64, Protocol: icmp.ProtoICMP, Src: src, Dst: dst},
			icmp.Message{Type: icmp.TypeEchoRequest, ID: uint16(i), Seq: uint16(i >> 16), Payload: payload})
		if _, _, err := icmp.ParseIPv4(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPermutation(b *testing.B) {
	pm, err := scanner.NewPermutation(1<<20, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	c := pm.Iterate()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Next(); !ok {
			c = pm.Iterate()
		}
	}
}

func BenchmarkDetect(b *testing.B) {
	env := benchEnvWarm(b)
	es := env.Signals().AS(25482)
	cfg := signals.ASConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := signals.Detect(es, cfg)
		if len(d.Flags) == 0 {
			b.Fatal("no flags")
		}
	}
}

func BenchmarkSimStateGeneration(b *testing.B) {
	// Per-round, per-block ground-truth evaluation throughput: every block at
	// one round start, then the next round — the coordinator's SetRouted loop,
	// and a memo miss on every call.
	sc := sim.MustBuild(sim.Config{Seed: 3, Scale: 0.02})
	n, rounds := sc.Space.NumBlocks(), sc.TL.NumRounds()
	resp := 0
	b.ResetTimer()
	for i := 0; i < b.N; {
		at := sc.TL.Time(i / n % rounds)
		for bi := 0; bi < n && i < b.N; bi, i = bi+1, i+1 {
			resp += sc.BlockStateAt(bi, at).Resp
		}
	}
	benchResp = resp
}

var benchResp int
