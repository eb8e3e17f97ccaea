package countrymon

import (
	"bytes"
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/fleet"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// oneVantage builds the two ways to scan from one vantage — Options.Transport
// and a one-vantage Options.Fleet — over the same world: each scan's wire
// answers like resp and, with a blackout, goes dark inside the window. It
// returns, per way, the options and a func reporting the probes every wire
// built so far has carried.
func oneVantage(t *testing.T, opts Options, resp simnet.Responder, blackout []faults.Window) map[string]func() (Options, func() uint64) {
	t.Helper()
	local := netmodel.MustParseAddr("198.51.100.1")
	wire := func(at time.Time) (*tallied, Transport) {
		net := &tallied{Network: simnet.New(local, resp, at)}
		if blackout == nil {
			return net, net
		}
		return net, faults.NewTransport(net, net, faults.Profile{Seed: 1, Windows: blackout})
	}
	return map[string]func() (Options, func() uint64){
		"Transport": func() (Options, func() uint64) {
			o := opts
			net, tr := wire(o.Start)
			o.Transport, o.Clock = tr, net
			return o, net.sent
		},
		"one-vantage Fleet": func() (Options, func() uint64) {
			o := opts
			var nets []*tallied // one scan at a time: a lone vantage has no second view to re-probe from
			o.Clock = scanner.NewVirtualClock(o.Start)
			o.Fleet = soloFleet(t, []fleet.Spec{{Transport: func(_ int, at time.Time) (Transport, Clock, error) {
				net, tr := wire(at)
				nets = append(nets, net)
				return tr, net, nil
			}}}, o, 0)
			return o, func() uint64 {
				var total uint64
				for _, net := range nets {
					total += net.sent()
				}
				return total
			}
		},
	}
}

// tallied is a simulated wire that counts its probes across re-arms, each of
// which restarts the wire's own counters.
type tallied struct {
	*simnet.Network
	before uint64 // probes sent before the last re-arm
}

func (w *tallied) Rearm(at time.Time) bool {
	sent, _, _ := w.Counters()
	w.before += sent
	return w.Network.Rearm(at)
}

func (w *tallied) sent() uint64 {
	sent, _, _ := w.Counters()
	return w.before + sent
}

// TestOneVantageProbeBudget: a vantage with no second view sends one probe
// per target address per round — a block reading dark against its belief is
// not re-probed from the vantage that read it — counted on the wire.
func TestOneVantageProbeBudget(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	opts := Options{
		Targets: []Prefix{netmodel.MustParsePrefix("10.0.0.0/23")},
		Start:   start, Rounds: 5, Interval: time.Hour, Seed: 1,
	}
	// Rounds 2 and 3 are dark, so round 2 reads every block below round 1's
	// belief.
	dark := outageResponder(40, start.Add(2*time.Hour), start.Add(4*time.Hour))
	for name, build := range oneVantage(t, opts, dark, nil) {
		t.Run(name, func(t *testing.T) {
			o, sent := build()
			mon, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			per := uint64(512) // the /23's addresses
			for mon.NextRound() {
				r := mon.Round()
				if _, err := mon.ScanRound(); err != nil {
					t.Fatal(err)
				}
				if got := sent(); got != uint64(r+1)*per {
					t.Fatalf("after round %d: %d probes on the wire, want %d (one per address per round)", r, got, uint64(r+1)*per)
				}
			}
			if rep := mon.FleetReport(); rep.Suspects != 0 {
				t.Errorf("a lone vantage corroborated %d suspect blocks", rep.Suspects)
			}
		})
	}
}

// TestLoneVantageScansAfterBlackout blacks out the only vantage for rounds 2
// to 5. Each is a self-outage, recorded missing, whichever way the Monitor
// was built; the vantage is never quarantined, so round 6 is scanned as soon
// as the blackout ends, and both ways store the same bytes.
func TestLoneVantageScansAfterBlackout(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	opts := Options{
		Targets: []Prefix{netmodel.MustParsePrefix("10.0.0.0/24")},
		Start:   start, Rounds: 8, Interval: time.Hour, Seed: 1,
		Bus: obs.NewBus(0),
	}
	blackout := []faults.Window{{From: start.Add(2 * time.Hour), To: start.Add(6 * time.Hour), Kind: faults.Blackout}}
	var stores [][]byte
	for _, name := range []string{"Transport", "one-vantage Fleet"} {
		o, _ := oneVantage(t, opts, outageResponder(5, start, start), blackout)[name]()
		mon, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		for mon.NextRound() {
			r, seq := mon.Round(), o.Bus.Seq()
			if _, err := mon.ScanRound(); err != nil {
				t.Fatal(err)
			}
			var reason string
			for _, ev := range o.Bus.Since(seq) {
				if p, ok := ev.Fields.(RoundMissingEvent); ok {
					reason = p.Reason
				}
			}
			st := mon.Store()
			switch dark := r >= 2 && r <= 5; {
			case dark && (!st.Missing(r) || reason != "fleet_self_outage"):
				t.Errorf("%s: round %d: missing=%v reason=%v, want a fleet self-outage", name, r, st.Missing(r), reason)
			case !dark && (st.Missing(r) || st.Coverage(r) != 1 || st.Resp(0, r) != 5):
				t.Errorf("%s: round %d: missing=%v coverage=%v resp=%d, want scanned in full",
					name, r, st.Missing(r), st.Coverage(r), st.Resp(0, r))
			}
		}
		if rep := mon.FleetReport(); len(rep.Quarantined) != 0 || rep.SelfOutages != 4 {
			t.Errorf("%s: quarantined %v, %d self-outages; want none and 4", name, rep.Quarantined, rep.SelfOutages)
		}
		stores = append(stores, storeBytes(t, mon))
	}
	if !bytes.Equal(stores[0], stores[1]) {
		t.Error("a solo Monitor and a one-vantage fleet stored different bytes for the same blackout")
	}
}

// TestFleetKeepsCallerScanMetrics: a fleet whose caller registered the
// scanner's instruments unscoped on the Monitor's own registry still builds
// a Monitor. The campaign owns the scans' instruments, so New registers
// none of its own through the country's scope, where the same names with a
// country label would conflict.
func TestFleetKeepsCallerScanMetrics(t *testing.T) {
	opts := smallOpts(t, 1)
	opts.Registry = obs.NewRegistry()
	net := opts.Transport
	sup, err := fleet.NewShared([]fleet.Spec{{Transport: func(int, time.Time) (Transport, Clock, error) {
		return lent{scanner.AsBatch(net)}, net.(Clock), nil
	}}}, fleet.Config{
		Scan:     scanner.Config{Seed: opts.Seed, Metrics: scanner.NewMetrics(opts.Registry)},
		Registry: opts.Registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	targets, err := scanner.NewTargetSet(opts.Targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Fleet, err = sup.Join(fleet.CampaignConfig{Name: "UA", Targets: targets}); err != nil {
		t.Fatal(err)
	}
	opts.Transport = nil
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.ScanRound(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	opts.Registry.WritePrometheus(&b)
	if !strings.Contains(b.String(), "scanner_probes_sent_total 256\n") {
		t.Errorf("the caller's unscoped scanner series did not count the round:\n%s", b.String())
	}
}

// TestStepAllocs: a warm solo Step — scan, ingest, fold and the rest of
// finishRound, with no registry or bus — allocates nothing, the one-vantage
// fleet under it included.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	mon, err := New(smallOpts(t, 32))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := mon.Step(context.Background(), RunConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm-up: the scan's buffers and the wire's reply slab
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("a warm Step allocates %.2f objects, want 0", allocs)
	}
}

// TestCheckpointStepAllocBytes: a Step that writes a checkpoint, after the
// first one, allocates less than the store file's 64 KiB write buffer — the
// writer is pooled, not taken afresh for a file of a few kilobytes.
func TestCheckpointStepAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled writers under -race")
	}
	opts := smallOpts(t, 32)
	opts.CheckpointPath = filepath.Join(t.TempDir(), "campaign.cmds")
	opts.CheckpointEvery = 1
	mon, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := mon.Step(context.Background(), RunConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm-up: the first checkpoint takes the pool's writer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a checkpointing Step allocates %d bytes, want fewer than the 64 KiB write buffer", got)
	}
}

// TestSoloVantageHealthPerCountry: two solo Monitors on one registry, UA's
// vantage blacked out and RO's clean, each report their own vantage's health.
// A solo Monitor's vantage is named after its country, so the unscoped
// fleet_vantage_health series of the two do not overwrite each other.
func TestSoloVantageHealthPerCountry(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	reg := obs.NewRegistry()
	blackout := []faults.Window{{From: start, To: start.Add(3 * time.Hour), Kind: faults.Blackout}}
	var mons []*Monitor
	for cc, windows := range map[string][]faults.Window{"UA": blackout, "RO": nil} {
		opts := Options{
			Targets: []Prefix{netmodel.MustParsePrefix("10.0.0.0/24")},
			Start:   start, Rounds: 3, Interval: time.Hour, Seed: 1, Country: cc, Registry: reg,
		}
		o, _ := oneVantage(t, opts, outageResponder(5, start, start), windows)["Transport"]()
		mon, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		mons = append(mons, mon)
	}
	for _, mon := range mons {
		runRounds(t, mon, -1)
	}
	health := reg.GaugeVec("fleet_vantage_health", "", "vantage")
	if ua, ro := health.With("UA").Value(), health.With("RO").Value(); ua >= 1000 || ro != 1000 {
		t.Errorf("fleet_vantage_health: UA %d, RO %d; want UA's below 1000 after its blackout and RO's 1000", ua, ro)
	}
}
