package countrymon

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/signals"
	"countrymon/internal/simnet"
)

// streamOpts builds the shared option set of the signal-fold and journal
// tests: the standard outage scenario plus a round log when a variant needs
// one. Each call makes a fresh simnet, so independent runs see identical
// virtual wire behaviour (rounds are scheduled on the timeline).
func streamOpts(rounds int, roundLog string) Options {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	outFrom := start.Add(120 * 2 * time.Hour)
	outTo := outFrom.Add(15 * 2 * time.Hour)
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), outageResponder(40, outFrom, outTo), start)
	return Options{
		Transport: net,
		Targets:   []Prefix{netmodel.MustParsePrefix("91.198.4.0/23")},
		Start:     start, Rounds: rounds, Interval: 2 * time.Hour,
		Seed: 7,
		Origins: map[BlockID]ASN{
			netmodel.MustParseBlock("91.198.4.0/24"): 25482,
			netmodel.MustParseBlock("91.198.5.0/24"): 25482,
		},
		RoundLogPath: roundLog,
	}
}

// darkRounds puts opts' wire behind a blackout over each of the given
// rounds: the vantage is dark for them, and the monitor measures that.
func darkRounds(opts Options, rounds ...int) Options {
	var prof faults.Profile
	for _, r := range rounds {
		from := opts.Start.Add(time.Duration(r) * opts.Interval)
		prof.Windows = append(prof.Windows, faults.Window{From: from, To: from.Add(opts.Interval), Kind: faults.Blackout})
	}
	opts.Transport = faults.NewTransport(opts.Transport, nil, prof)
	return opts
}

// batchOracle builds the batch signals builder — the test oracle the Monitor
// itself no longer constructs — over the monitor's finished store, with the
// monitor's own origins and coverage gate.
func batchOracle(mon *Monitor) *signals.Builder {
	return signals.NewBuilderMinCoverage(mon.Store(), mon.buildSpace(), mon.minCoverage())
}

// sameEntitySeries holds got to want bit for bit at every round of the span
// (len(Missing)), each read through the zero rule (At).
func sameEntitySeries(t *testing.T, label string, want, got *signals.EntitySeries) {
	t.Helper()
	if len(want.Missing) != len(got.Missing) {
		t.Fatalf("%s: a span of %d rounds vs %d", label, len(want.Missing), len(got.Missing))
	}
	for r := range want.Missing {
		wb, wf, wi := want.At(r)
		gb, gf, gi := got.At(r)
		if math.Float32bits(wb) != math.Float32bits(gb) ||
			math.Float32bits(wf) != math.Float32bits(gf) ||
			math.Float32bits(wi) != math.Float32bits(gi) ||
			want.Missing[r] != got.Missing[r] {
			t.Fatalf("%s: round %d: batch (%g, %g, %g) vs stream (%g, %g, %g)", label, r, wb, wf, wi, gb, gf, gi)
		}
	}
	for m := range want.IPSValidMonth {
		if want.IPSValidMonth[m] != got.IPSValidMonth[m] {
			t.Fatalf("%s: month %d: IPS validity differs", label, m)
		}
	}
}

// TestMonitorStreamSignalsMatchesBatch queries the monitor's signals before
// and after every round — so the builder is warm from the empty store on and
// every round folds into it — and requires series and detections
// bit-identical to the batch oracle built once over the finished store.
func TestMonitorStreamSignalsMatchesBatch(t *testing.T) {
	const rounds = 200
	mon, err := New(streamOpts(rounds, ""))
	if err != nil {
		t.Fatal(err)
	}
	warm := mon.builder()
	for mon.NextRound() {
		round := mon.Round()
		for _, blk := range mon.Store().Blocks() {
			mon.SetRouted(blk, round, true, 25482)
		}
		if _, err := mon.ScanRound(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if es := mon.ASSeries(25482); es == nil {
			t.Fatal("nil series")
		}
	}
	if mon.builder() != warm {
		t.Fatal("the builder was rebuilt mid-campaign instead of folding every round")
	}

	want := batchOracle(mon).AS(25482)
	sameEntitySeries(t, "AS25482", want, mon.ASSeries(25482))
	oracle := signals.Detect(want, signals.ASConfig())
	sameOutages(t, "DetectAS", mon.DetectAS(25482).Outages, oracle.Outages)
	if len(oracle.Outages) != 1 {
		t.Fatalf("scenario outages = %+v, want the scripted one", oracle.Outages)
	}
}

// TestLiveDetectionStopsAtRoundCursor: mid-campaign, a steady AS — every
// host that answers answers every round — shows no outage and emits no
// detection event, because the rounds nobody has scanned yet are outside
// the series, not measured zeros. Once the campaign is complete, DetectAS
// and ASSeries see the whole timeline and agree with the batch oracle.
func TestLiveDetectionStopsAtRoundCursor(t *testing.T) {
	const rounds, mid = 360, 200
	opts := streamOpts(rounds, "")
	start := opts.Start
	opts.Transport = simnet.New(netmodel.MustParseAddr("198.51.100.1"), outageResponder(40, start, start), start)
	opts.Bus = obs.NewBus(0)
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	detections := func() int {
		n := 0
		for _, ev := range opts.Bus.Since(0) {
			if ev.Kind == "detection" {
				n++
			}
		}
		return n
	}
	for mon.NextRound() {
		round := mon.Round()
		if round == mid {
			if d := mon.DetectAS(25482); len(d.Outages) != 0 || len(d.Flags) != mid {
				t.Fatalf("after %d of %d rounds: outages %+v over %d rounds, want none over %d",
					mid, rounds, d.Outages, len(d.Flags), mid)
			}
			if n := len(mon.ASSeries(25482).Missing); n != mid {
				t.Fatalf("after %d rounds: ASSeries spans %d rounds", mid, n)
			}
			if n := detections(); n != 0 {
				t.Fatalf("after %d rounds: %d detection events", mid, n)
			}
		}
		for _, blk := range mon.Store().Blocks() {
			mon.SetRouted(blk, round, true, 25482)
		}
		if _, err := mon.ScanRound(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	want := batchOracle(mon).AS(25482)
	sameEntitySeries(t, "AS25482", want, mon.ASSeries(25482))
	got, oracle := mon.DetectAS(25482), signals.Detect(want, signals.ASConfig())
	if len(got.Flags) != rounds {
		t.Fatalf("complete campaign: detection over %d rounds, want %d", len(got.Flags), rounds)
	}
	sameOutages(t, "DetectAS", got.Outages, oracle.Outages)
	if len(got.Outages) != 0 {
		t.Fatalf("steady AS: outages %+v", got.Outages)
	}
}

// TestMonitorStreamSignalsWithMissingRounds exercises the fold across
// missing rounds: the wire is dark for two rounds, which the monitor records
// missing while keeping its builder warm, and must agree with the batch
// oracle.
func TestMonitorStreamSignalsWithMissingRounds(t *testing.T) {
	const rounds = 120
	mon, err := New(darkRounds(streamOpts(rounds, ""), 50, 51))
	if err != nil {
		t.Fatal(err)
	}
	for mon.NextRound() {
		round := mon.Round()
		for _, blk := range mon.Store().Blocks() {
			mon.SetRouted(blk, round, true, 25482)
		}
		if _, err := mon.ScanRound(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		mon.ASSeries(25482)
	}
	got := mon.ASSeries(25482)
	sameEntitySeries(t, "AS25482", batchOracle(mon).AS(25482), got)
	if !got.Missing[50] || !got.Missing[51] {
		t.Fatal("dark rounds not missing in streamed series")
	}
}

// TestRoundLogCrashResume kills an un-checkpointed campaign mid-run and
// resumes it from the round log alone: the journal replay must reposition
// the cursor exactly where the kill happened (no redone rounds, unlike
// checkpoint-cadence resume) and the finished store must be byte-identical
// to an uninterrupted run.
func TestRoundLogCrashResume(t *testing.T) {
	const rounds = 60
	dir := t.TempDir()

	ref, err := New(streamOpts(rounds, dir+"/ref.cmrl"))
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, ref, -1)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	var refBytes bytes.Buffer
	if _, err := ref.Store().WriteTo(&refBytes); err != nil {
		t.Fatal(err)
	}

	killed, err := New(streamOpts(rounds, dir+"/killed.cmrl"))
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, killed, 25)
	if err := killed.Close(); err != nil {
		t.Fatal(err)
	}

	resOpts := streamOpts(rounds, dir+"/killed.cmrl")
	resOpts.Registry, resOpts.Bus = obs.NewRegistry(), obs.NewBus(0)
	res, err := New(resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Round() != 25 {
		t.Fatalf("resumed at round %d, want 25 (journal replays every handled round)", res.Round())
	}
	// A resume the journal made is announced like one a checkpoint made.
	evs := resOpts.Bus.Since(0)
	if len(evs) != 1 || evs[0].Kind != "resume" ||
		evs[0].Fields != (ResumeEvent{Round: 25, Path: resOpts.RoundLogPath}) {
		t.Fatalf("events after a journal-only resume = %+v, want one resume at round 25 naming the journal", evs)
	}
	if got := res.metrics.resumeRound.Value(); got != 25 {
		t.Fatalf("monitor_resume_round = %d, want 25", got)
	}
	runRounds(t, res, -1)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}

	var resBytes bytes.Buffer
	if _, err := res.Store().WriteTo(&resBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes.Bytes(), resBytes.Bytes()) {
		t.Fatalf("journal-resumed store differs from uninterrupted run (%d vs %d bytes)",
			resBytes.Len(), refBytes.Len())
	}
	sameOutages(t, "DetectAS after journal resume",
		res.DetectAS(25482).Outages, ref.DetectAS(25482).Outages)
}

// TestRoundLogTornTailTwice crashes a journalled campaign mid-append twice:
// each kill leaves the last record short by a few bytes (or by most of it),
// and each restart must replay the complete records, trim the torn one,
// rescan that round and append behind clean bytes. A journal that kept the
// torn bytes would survive the first restart and refuse the second.
func TestRoundLogTornTailTwice(t *testing.T) {
	const rounds = 40
	dir := t.TempDir()

	ref, err := New(streamOpts(rounds, dir+"/ref.cmrl"))
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, ref, -1)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	var refBytes bytes.Buffer
	if _, err := ref.Store().WriteTo(&refBytes); err != nil {
		t.Fatal(err)
	}
	refLog, err := os.ReadFile(dir + "/ref.cmrl")
	if err != nil {
		t.Fatal(err)
	}

	path := dir + "/torn.cmrl"
	// crash runs the campaign to stopAt, then tears cut bytes off the last
	// record, as a kill between Write and the end of the fsync would.
	crash := func(stopAt, wantResume int, cut int64) {
		t.Helper()
		mon, err := New(streamOpts(rounds, path))
		if err != nil {
			t.Fatalf("restart before round %d: %v", stopAt, err)
		}
		if mon.Round() != wantResume {
			t.Fatalf("resumed at round %d, want %d", mon.Round(), wantResume)
		}
		runRounds(t, mon, stopAt)
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
	}
	crash(12, 0, 3)   // round 11's record loses its last 3 bytes
	crash(27, 11, 20) // round 26's record loses most of its routed bitset

	res, err := New(streamOpts(rounds, path))
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if res.Round() != 26 {
		t.Fatalf("resumed at round %d, want 26", res.Round())
	}
	runRounds(t, res, -1)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	var resBytes bytes.Buffer
	if _, err := res.Store().WriteTo(&resBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes.Bytes(), resBytes.Bytes()) {
		t.Fatal("store after two torn-tail restarts differs from the uninterrupted run")
	}
	gotLog, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refLog, gotLog) {
		t.Fatalf("journal after two torn-tail restarts is %d bytes, the uninterrupted one %d",
			len(gotLog), len(refLog))
	}
}

// TestRoundLogRejectsMismatchedCampaign guards journal validation: a log
// from a different campaign shape must not be silently adopted.
func TestRoundLogRejectsMismatchedCampaign(t *testing.T) {
	dir := t.TempDir()
	mon, err := New(streamOpts(40, dir+"/a.cmrl"))
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, mon, 5)
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	opts := streamOpts(80, dir+"/a.cmrl") // different round count
	if _, err := New(opts); err == nil {
		t.Fatal("mismatched round log accepted")
	}
}
