package campaign

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/scanner"
)

// TestFaultedCampaignGolden pins a two-country campaign on three shared
// vantages whose every view of the wire drops and fails probes at random,
// with v0 blacked out over rounds 3–6 (long enough to quarantine it, so
// another vantage scans two shards of a round) and RO's view of v1 stalled
// over rounds 8–9: each country's store (its file bytes, hashed) and fleet
// report, and the fault counters summed over every wrapper the campaign
// built. The probabilities draw from each wrapper's seeded RNG on every
// packet, so the stores hold which probes each scan lost: a scan whose
// wrapper did not start from its profile's seed moves them.
func TestFaultedCampaignGolden(t *testing.T) {
	spec := testSpec(t, 12)
	window := func(from, to int, kind faults.Kind) []faults.Window {
		return []faults.Window{{
			From: spec.Start.Add(time.Duration(from)*spec.Interval - 30*time.Minute),
			To:   spec.Start.Add(time.Duration(to)*spec.Interval + 90*time.Minute),
			Kind: kind,
		}}
	}
	var (
		mu      sync.Mutex
		wrapped []*faults.Transport
	)
	wrap := func(country, vantage string, tr scanner.Transport) scanner.Transport {
		prof := faults.Profile{Seed: uint64(country[0])<<8 | uint64(vantage[1]), SendErrorProb: 0.01, DropProb: 0.02}
		switch {
		case vantage == "v0":
			prof.Windows = window(3, 6, faults.Blackout)
		case country == "RO" && vantage == "v1":
			prof.Windows = window(8, 9, faults.Stall)
		}
		ftr := faults.NewTransport(tr, nil, prof)
		mu.Lock()
		wrapped = append(wrapped, ftr)
		mu.Unlock()
		return ftr
	}
	co, err := New(spec, Options{WrapTransport: wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, c := range co.Countries() {
		rep := c.FleetReport()
		fmt.Fprintf(&b, "%s store %x\n", c.Code, sha256.Sum256(storeBytes(t, c.Monitor)))
		fmt.Fprintf(&b, "%s fleet quarantined=%v degraded=%d self_outages=%d steals=%d suspects=%d alive=%d down=%d held=%d\n",
			c.Code, rep.Quarantined, rep.DegradedRounds, rep.SelfOutages, rep.Steals,
			rep.Suspects, rep.FusedAlive, rep.FusedDown, rep.FusedHeld)
	}
	var sum faults.Counters
	for _, ftr := range wrapped {
		c := ftr.Counters()
		sum.SendErrors += c.SendErrors
		sum.Drops += c.Drops
		sum.RecvErrors += c.RecvErrors
		sum.Truncated += c.Truncated
		sum.Blackouts += c.Blackouts
	}
	fmt.Fprintf(&b, "faults send_errors=%d drops=%d recv_errors=%d truncated=%d blackouts=%d\n",
		sum.SendErrors, sum.Drops, sum.RecvErrors, sum.Truncated, sum.Blackouts)
	if sum.SendErrors == 0 || sum.Drops == 0 || sum.Blackouts == 0 {
		t.Fatalf("too tame to pin the fault stream: %+v", sum)
	}
	got := b.String()

	path := filepath.Join("testdata", "faulted.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("faulted campaign differs from %s (re-run with -update after an intended change)\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
