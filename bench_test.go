package countrymon

// The scan-round pair: BenchmarkScanRound is what `make profile-round`
// profiles, and with BenchmarkScanRoundMetrics it pins the cost of the
// disabled instrumentation path. The paper's tables and figures run through
// cmd/experiments (pinned by its goldens) and performance claims are measured
// by the repo benchmark under bench/, so no other benchmark lives here.

import (
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

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
