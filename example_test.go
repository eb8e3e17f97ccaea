package countrymon_test

import (
	"fmt"
	"log"
	"time"

	"countrymon"
	"countrymon/internal/netmodel"
	"countrymon/internal/simnet"
)

// ExampleMonitor monitors a small address space over the simulated wire for
// 30 days of bi-hourly rounds, with two outages injected, and detects both
// with the public API. The 24-hour full outage shows in FBS■ and IPS▲; the
// partial one (half the hosts) only in IPS▲, which a sampled prober would
// have missed (§3.1 of the paper).
func ExampleMonitor() {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	const rounds = 360 // 30 days of bi-hourly scans

	// Ground truth: a provider with two /24s whose network fully fails for
	// 24 hours on day 25, plus a permanent partial outage (half the hosts)
	// from day 27.
	fullFrom := start.Add(25 * 24 * time.Hour)
	fullTo := fullFrom.Add(24 * time.Hour)
	partialFrom := start.Add(27 * 24 * time.Hour)
	truth := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		alive := dst.HostByte() < 60
		if !at.Before(fullFrom) && at.Before(fullTo) {
			alive = false
		}
		if !at.Before(partialFrom) && dst.HostByte() >= 30 {
			alive = false
		}
		if !alive {
			return simnet.Reply{Kind: simnet.NoReply}
		}
		return simnet.Reply{Kind: simnet.EchoReply, RTT: 35 * time.Millisecond}
	})

	// The simulated network is both the transport and the (virtual) clock:
	// 30 days of scanning complete in well under a second of wall time.
	wire := simnet.New(netmodel.MustParseAddr("198.51.100.1"), truth, start)

	mon, err := countrymon.New(countrymon.Options{
		Transport: wire,
		Targets:   []countrymon.Prefix{mustPrefix("91.198.4.0/23")},
		Start:     start, Rounds: rounds, Interval: 2 * time.Hour,
		Rate: 0, Seed: 42,
		Origins: map[countrymon.BlockID]countrymon.ASN{
			mustPrefix("91.198.4.0/24").Base.Block(): 64512,
			mustPrefix("91.198.5.0/24").Base.Block(): 64512,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	for mon.NextRound() {
		round := mon.Round()
		for _, blk := range mon.Store().Blocks() {
			mon.SetRouted(blk, round, true, 64512) // routes stay up throughout
		}
		if _, err := mon.ScanRound(); err != nil {
			log.Fatal(err)
		}
	}

	for _, o := range mon.DetectAS(64512).Outages {
		fmt.Printf("%s → %s  signals=%v\n",
			mon.Timeline().Time(o.Start).Format("Jan 02 15:04"),
			mon.Timeline().Time(o.End).Format("Jan 02 15:04"),
			o.Signals)
	}
	// Output:
	// Jan 26 00:00 → Jan 27 00:00  signals=FBS■+IPS▲
	// Jan 28 00:00 → Jan 31 00:00  signals=IPS▲
}

func mustPrefix(s string) countrymon.Prefix {
	p, err := countrymon.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}
