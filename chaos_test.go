package countrymon

import (
	"bytes"
	"cmp"
	"fmt"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/fleet"
	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// The chaos soak (also `make chaos-smoke`): a three-vantage fleet campaign
// with scripted single-vantage blackouts, a wedged receive path and
// connectivity flaps, over ground truth containing one genuine outage. The
// fleet must (a) declare zero block outages the fault-free single-vantage
// baseline does not also declare, (b) still detect the genuine outage in
// the same rounds, and (c) produce byte-identical output regardless of
// COUNTRYMON_WORKERS and across kill/resume.

const chaosRounds = 120

var (
	chaosStart   = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	chaosOutFrom = chaosStart.Add(60 * 2 * time.Hour) // genuine outage: rounds [60, 75)
	chaosOutTo   = chaosStart.Add(75 * 2 * time.Hour)
)

// chaosWindow covers the scans of rounds [from, to] (2h cadence) with some
// slack either side.
func chaosWindow(from, to int, kind faults.Kind, period time.Duration) faults.Window {
	return faults.Window{
		From:   chaosStart.Add(time.Duration(from)*2*time.Hour - 30*time.Minute),
		To:     chaosStart.Add(time.Duration(to)*2*time.Hour + 90*time.Minute),
		Kind:   kind,
		Period: period,
	}
}

// chaosVantage builds a fleet vantage over the shared ground truth,
// optionally fault-wrapped.
func chaosVantage(name string, windows ...faults.Window) fleet.Spec {
	local := netmodel.MustParseAddr("198.51.100.1")
	return fleet.Spec{
		Name: name,
		Transport: func(round int, at time.Time) (Transport, Clock, error) {
			net := simnet.New(local, outageResponder(40, chaosOutFrom, chaosOutTo), at)
			if len(windows) == 0 {
				return net, net, nil
			}
			return faults.NewTransport(net, nil, faults.Profile{Seed: 1, Windows: windows}), net, nil
		},
	}
}

// soloFleet joins one campaign, named "default", over opts' targets to a
// fresh supervisor of specs. Its scans run at opts' rate and seed and report
// into opts' registry and bus. It is the fleet a single-country Monitor
// scans through, as cmd/countrymon's -vantages builds it.
func soloFleet(t testing.TB, specs []fleet.Spec, opts Options, quorum int) *fleet.Campaign {
	t.Helper()
	targets, err := scanner.NewTargetSet(opts.Targets, opts.Exclude)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := fleet.NewShared(specs, fleet.Config{
		Scan:     scanner.Config{Rate: opts.Rate, Seed: opts.Seed},
		Quorum:   quorum,
		Registry: opts.Registry,
		Bus:      opts.Bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The campaign is the Monitor's country, so the scans report through the
	// same scope as the Monitor.
	camp, err := sup.Join(fleet.CampaignConfig{Name: cmp.Or(opts.Country, geodb.CountryUA), Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

// chaosOpts is the shared fleet campaign configuration: v0 suffers a
// blackout and later a receive-path stall, v1 flaps, v2 stays healthy.
// Every call joins a fresh supervisor, so each Monitor starts with fresh
// breakers.
func chaosOpts(t testing.TB, ckpt string) Options {
	opts := Options{
		Clock:   scanner.NewVirtualClock(chaosStart),
		Targets: []Prefix{netmodel.MustParsePrefix("91.198.4.0/23")},
		Start:   chaosStart, Rounds: chaosRounds, Interval: 2 * time.Hour,
		Seed: 7,
		Origins: map[BlockID]ASN{
			netmodel.MustParseBlock("91.198.4.0/24"): 25482,
			netmodel.MustParseBlock("91.198.5.0/24"): 25482,
		},
		CheckpointPath: ckpt, CheckpointEvery: 25,
	}
	opts.Fleet = soloFleet(t, []fleet.Spec{
		chaosVantage("v0",
			chaosWindow(10, 16, faults.Blackout, 0),
			chaosWindow(30, 36, faults.Stall, 0)),
		chaosVantage("v1",
			chaosWindow(45, 50, faults.Flap, 45*time.Minute)),
		chaosVantage("v2"),
	}, opts, 2)
	return opts
}

// chaosBaseline runs the same campaign through a single fault-free vantage:
// the reference for which outages are real and when they are detected.
func chaosBaseline(t *testing.T) *Monitor {
	t.Helper()
	opts := chaosOpts(t, "")
	opts.Fleet = nil
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"),
		outageResponder(40, chaosOutFrom, chaosOutTo), chaosStart)
	opts.Transport, opts.Clock = net, nil
	return runChaosCampaign(t, opts, -1)
}

func runChaosCampaign(t *testing.T, opts Options, stopAt int) *Monitor {
	t.Helper()
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, mon, stopAt)
	return mon
}

func storeBytes(t *testing.T, mon *Monitor) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := mon.Store().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestChaosSoak(t *testing.T) {
	// Fault-free single-vantage baseline: the ground truth of what outages
	// exist and when they are detected.
	baseline := chaosBaseline(t)
	baseAS := baseline.DetectAS(25482)
	if len(baseAS.Outages) != 1 || baseAS.Outages[0].Start != 60 {
		t.Fatalf("baseline campaign: outages %+v, want one starting at round 60", baseAS.Outages)
	}

	chaos := runChaosCampaign(t, chaosOpts(t, ""), -1)

	// (a) + (b): identical outage sets — zero false block-outage
	// declarations AND the genuine outage detected in the same rounds (well
	// within one round of the single-healthy-vantage baseline).
	chaosAS := chaos.DetectAS(25482)
	sameOutages(t, "chaos DetectAS", chaosAS.Outages, baseAS.Outages)

	// Every round carried usable data: scripted single-vantage faults never
	// cost the campaign a round (the remaining vantages cover the shards).
	for r := 0; r < chaosRounds; r++ {
		if chaos.Store().Missing(r) {
			t.Errorf("round %d recorded missing despite two healthy vantages", r)
		}
		if cov := chaos.Store().Coverage(r); cov < 1 {
			t.Errorf("round %d coverage %v, want 1", r, cov)
		}
	}

	// The chaos was real: the sick vantage was quarantined at least once
	// and shards were stolen mid-round.
	rep := chaos.FleetReport()
	if len(rep.Quarantined) == 0 {
		t.Error("no vantage was ever quarantined by the scripted faults")
	}
	if rep.Steals == 0 {
		t.Error("no shard was ever stolen despite blackout windows")
	}
	if rep.FusedDown == 0 {
		t.Error("the genuine outage produced no corroborated down transition")
	}
	if !rep.Degraded() {
		t.Error("a campaign with quarantines must report degraded")
	}
}

func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	t.Setenv("COUNTRYMON_WORKERS", "1")
	serial := storeBytes(t, runChaosCampaign(t, chaosOpts(t, ""), -1))
	t.Setenv("COUNTRYMON_WORKERS", "8")
	wide := storeBytes(t, runChaosCampaign(t, chaosOpts(t, ""), -1))
	if !bytes.Equal(serial, wide) {
		t.Fatal("fleet campaign output depends on COUNTRYMON_WORKERS")
	}
}

func TestChaosKillResume(t *testing.T) {
	full := storeBytes(t, runChaosCampaign(t, chaosOpts(t, ""), -1))

	// Kill at round 100 — past every fault window, with the fleet settled
	// back to steady state — then resume from the checkpoint in a fresh
	// monitor (fresh breakers) and finish.
	ckpt := t.TempDir() + "/chaos.ckpt"
	killed, err := New(chaosOpts(t, ckpt))
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, killed, 100)
	if err := killed.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	opts := chaosOpts(t, ckpt)
	opts.ResumeFrom = ckpt
	opts.Clock = scanner.NewVirtualClock(chaosStart.Add(100 * 2 * time.Hour))
	resumed := runChaosCampaign(t, opts, -1)
	if got := storeBytes(t, resumed); !bytes.Equal(got, full) {
		t.Fatalf("resumed chaos campaign diverged from uninterrupted run (%d vs %d bytes)", len(got), len(full))
	}
}

// Guards the README exit-code table: fleet degradation is a distinct,
// scriptable outcome.
func ExampleFleetReport() {
	rep := FleetReport{Quarantined: []string{"v0"}, DegradedRounds: 2, Steals: 5}
	fmt.Println(rep.Degraded())
	// Output: true
}
