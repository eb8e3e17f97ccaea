package countrymon

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/fleet"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// TestRoundOutcomes drives one short campaign per way a round can end and
// checks, for its last round, every place the outcome is recorded: Step's
// Stats, the outcome event on the bus (kind and every field), the
// monitor_rounds_total{country,outcome} counter and monitor_last_round{country}
// gauge, and the store's missing, done, coverage and first-block response
// cells.
func TestRoundOutcomes(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	// faulty puts the wire behind one fault window of kind, from `from`
	// into round 0 to an hour after its start.
	faulty := func(kind faults.Kind, from time.Duration) func(*testing.T, *Options) {
		return func(t *testing.T, o *Options) {
			net := o.Transport.(*simnet.Network)
			o.Clock = net
			o.Transport = faults.NewTransport(net, nil, faults.Profile{Seed: 1, Windows: []faults.Window{
				{From: start.Add(from), To: start.Add(time.Hour), Kind: kind},
			}})
		}
	}
	// fleetOf scans through a fleet of n vantages whose wire, built per
	// (round, scan of that round), answers hosts below density(round, scan); a
	// negative density is an unreachable vantage. A round's first n scans are
	// its shards, in whatever order the vantages start them.
	fleetOf := func(n int, density func(round, scan int) int) func(*testing.T, *Options) {
		return func(t *testing.T, o *Options) {
			var mu sync.Mutex
			scans := map[int]int{}
			factory := func(round int, at time.Time) (Transport, Clock, error) {
				mu.Lock()
				d := density(round, scans[round])
				scans[round]++
				mu.Unlock()
				if d < 0 {
					return nil, nil, errors.New("vantage unreachable")
				}
				net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), outageResponder(uint8(d), start, start), at)
				return oneScan{net}, net, nil
			}
			specs := make([]fleet.Spec, n)
			for i := range specs {
				specs[i] = fleet.Spec{Transport: factory}
			}
			o.Transport = nil
			o.Clock = scanner.NewVirtualClock(o.Start)
			o.Fleet = soloFleet(t, specs, *o, 0)
		}
	}
	full := Stats{Sent: 256, Received: 5, Valid: 5, Elapsed: 8024 * time.Millisecond}

	for _, tc := range []struct {
		name   string
		rounds int // the campaign's length; its last round is checked
		opts   func(*testing.T, *Options)

		stats    Stats
		kind     string
		fields   any    // the outcome event's payload
		outcome  string // monitor_rounds_total's label
		missing  bool
		coverage float64
		resp     int
		// reprobed: scans no kept round counts put probes on the wire too
		// (steals, re-probes), so scanner_probes_sent_total exceeds
		// CampaignStats().Sent; else the two are equal.
		reprobed bool
	}{
		{
			name: "scanned", rounds: 1,
			stats: full, kind: "round_scanned",
			fields:  RoundScannedEvent{Round: 0, Sent: full.Sent, Valid: full.Valid, Coverage: 1},
			outcome: "scanned", coverage: 1, resp: 5,
		},
		{
			// A blackout late in the round leaves a hole smaller than the
			// heartbeat gate's 20 %: the shard is usable, the round salvaged.
			name: "salvaged", rounds: 1,
			opts: func(t *testing.T, o *Options) {
				o.Targets = []Prefix{netmodel.MustParsePrefix("10.0.0.0/22")}
				faulty(faults.Blackout, 110*time.Millisecond)(t, o)
			},
			stats:   Stats{Sent: 896, Received: 14, Valid: 14, SendErrors: 103, Retries: 309, Elapsed: 9*time.Second + 567287128},
			kind:    "round_salvaged",
			fields:  RoundScannedEvent{Round: 0, Sent: 896, Valid: 14, Coverage: 0.875},
			outcome: "salvaged", coverage: 0.875, resp: 3,
		},
		{
			// Half the round blacked out is below the heartbeat gate: no
			// usable data, so the round is missing, not salvaged at 50 %.
			// What its failed scan sent before the blackout is its Stats.
			name: "salvaged below the heartbeat gate", rounds: 1, opts: faulty(faults.Blackout, 10*time.Millisecond),
			stats:   Stats{Sent: 128, SendErrors: 26, Retries: 78, Elapsed: 8*time.Second + 367521067},
			kind:    "round_missing",
			fields:  RoundMissingEvent{Round: 0, Reason: "fleet_self_outage"},
			outcome: "missing", missing: true,
		},
		{
			// A dead receive path fails the heartbeat gate like a blackout.
			name: "receive path dead", rounds: 1, opts: faulty(faults.RecvErrors, 0),
			stats:   Stats{Sent: 256, RecvErrors: 33, Elapsed: 24 * time.Millisecond},
			kind:    "round_missing",
			fields:  RoundMissingEvent{Round: 0, Reason: "fleet_self_outage"},
			outcome: "missing", missing: true,
		},
		{
			name: "fleet self-outage", rounds: 2,
			opts: fleetOf(1, func(round, _ int) int {
				if round == 1 {
					return -1
				}
				return 5
			}),
			kind:    "round_missing",
			fields:  RoundMissingEvent{Round: 1, Reason: "fleet_self_outage"},
			outcome: "missing", missing: true,
		},
		{
			// The fleet's previous belief is the last round with data
			// (round 0), not the self-outage between: the block reads
			// depressed against it on both shards, so it is re-probed from
			// both vantages, and the re-probes' count is what the store
			// keeps. (A one-vantage fleet re-probes nothing.)
			name: "fleet scanned after a self-outage", rounds: 3,
			opts: fleetOf(2, func(round, scan int) int {
				switch {
				case round == 1:
					return -1
				case round == 2 && scan < 2:
					return 3
				}
				return 5
			}),
			stats:   Stats{Sent: 256, Received: 3, Valid: 3, Elapsed: 8008 * time.Millisecond},
			kind:    "round_scanned",
			fields:  RoundScannedEvent{Round: 2, Sent: 256, Valid: 3, Coverage: 1},
			outcome: "scanned", coverage: 1, resp: 5, reprobed: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts(t, tc.rounds)
			opts.Registry, opts.Bus = obs.NewRegistry(), obs.NewBus(0)
			if tc.opts != nil {
				tc.opts(t, &opts)
			}
			mon, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			outcomes := []string{"scanned", "salvaged", "missing"}
			counter := opts.Registry.CounterVec("monitor_rounds_total", "", "country", "outcome")
			var (
				st     Stats
				seq    uint64
				before []uint64 // monitor_rounds_total by outcome, before the last round
			)
			last := tc.rounds - 1
			for mon.NextRound() {
				seq, before = opts.Bus.Seq(), nil
				for _, o := range outcomes {
					before = append(before, counter.With(mon.Country(), o).Value())
				}
				if st, err = mon.Step(context.Background(), RunConfig{}); err != nil {
					t.Fatalf("round %d: %v", mon.Round(), err)
				}
			}
			if st != tc.stats {
				t.Errorf("Step = %+v, want %+v", st, tc.stats)
			}

			var outcome *obs.Event
			for _, ev := range opts.Bus.Since(seq) {
				switch ev.Kind {
				case "round_scanned", "round_salvaged", "round_missing":
					if outcome != nil {
						t.Errorf("second outcome event %s %v", ev.Kind, ev.Fields)
					}
					outcome = &ev
				}
			}
			if outcome == nil {
				t.Fatalf("round %d published no outcome event", last)
			}
			if outcome.Kind != tc.kind || !reflect.DeepEqual(outcome.Fields, tc.fields) {
				t.Errorf("outcome event %s %#v, want %s %#v", outcome.Kind, outcome.Fields, tc.kind, tc.fields)
			}

			for i, o := range outcomes {
				want := before[i]
				if o == tc.outcome {
					want++
				}
				if got := counter.With(mon.Country(), o).Value(); got != want {
					t.Errorf("monitor_rounds_total{country=%s,outcome=%s} = %d, want %d", mon.Country(), o, got, want)
				}
			}
			if got := opts.Registry.GaugeVec("monitor_last_round", "", "country").With(mon.Country()).Value(); got != int64(last) {
				t.Errorf("monitor_last_round{country=%s} = %d, want %d", mon.Country(), got, last)
			}
			wire, kept := opts.Registry.Scope(mon.Country()).Counter("scanner_probes_sent_total", "").Value(), mon.CampaignStats().Sent
			if tc.reprobed && wire <= kept || !tc.reprobed && wire != kept {
				t.Errorf("scanner_probes_sent_total{country=%s} = %d, CampaignStats().Sent = %d: want %s", mon.Country(), wire, kept,
					map[bool]string{true: "more on the wire", false: "equal"}[tc.reprobed])
			}

			// The store keeps coverage in 16-bit fixed point.
			s := mon.Store()
			if s.Missing(last) != tc.missing || !s.Done(last) || math.Abs(s.Coverage(last)-tc.coverage) > 1e-4 ||
				s.Resp(0, last) != tc.resp {
				t.Errorf("store round %d: missing=%v done=%v coverage=%v resp=%d, want missing=%v done=true coverage=%v resp=%d",
					last, s.Missing(last), s.Done(last), s.Coverage(last), s.Resp(0, last),
					tc.missing, tc.coverage, tc.resp)
			}
		})
	}
}

// oneScan is a wire that does not re-arm, so a fleet asks its factory for a
// wire per scan.
type oneScan struct{ scanner.BatchTransport }
