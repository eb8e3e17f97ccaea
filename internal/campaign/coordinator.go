package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	countrymon "countrymon"
	"countrymon/internal/fleet"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/serve"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
)

// Options tunes a Coordinator beyond what the Spec carries.
type Options struct {
	// Registry and Bus attach shared observability: each country's Monitor,
	// fleet campaign and Server report through the country's Scope of them.
	Registry *obs.Registry
	Bus      *obs.Bus
	// WrapTransport, when non-nil, wraps every transport the coordinator
	// builds — the chaos tests inject scripted vantage faults here, keyed by
	// (country, vantage). A wrapped transport that re-arms is kept across
	// scans (VantageTransport).
	WrapTransport func(country, vantage string, t scanner.Transport) scanner.Transport
}

// Country is one running country of a coordinated campaign.
type Country struct {
	Code, Name string
	// Share and Seed are the country's resolved budget share and seed.
	Share float64
	Seed  uint64

	World   *sim.Scenario
	Monitor *countrymon.Monitor
	Store   *serve.Store
	Server  *serve.Server

	camp *fleet.Campaign
	// run is the Monitor's per-round configuration: the world's ground-truth
	// routing as PreRound.
	run countrymon.RunConfig
}

// Coordinator runs per-country Monitors over one shared vantage fleet. It
// is single-goroutine like the Monitor: rounds advance in lockstep, and
// within a round countries scan in spec order. That fixed interleave is
// what keeps every country's output byte-identical to its solo equivalent —
// fleet state (breakers, health) mutates in the same order every run — while
// still letting a vantage blackout observed during one country's scan donate
// that vantage's shards to every later scan, in-round and cross-country.
type Coordinator struct {
	spec      *Spec
	sup       *fleet.Supervisor
	countries []*Country
	router    *serve.Router
	round     int
}

// New compiles a validated spec into a running coordinator: one shared
// fleet supervisor, and per country a joined fleet campaign, a Monitor, a
// serve Store fed round by round, and a Server mounted on the Router under
// the country's code (first country = default, owning the legacy routes).
func New(spec *Spec, opts Options) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	sup, err := NewFleet(spec.Vantages, spec.Quorum, spec.Rate, spec.Seed, opts.Registry, opts.Bus)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{spec: spec, sup: sup, router: serve.NewRouter()}
	for i := range spec.Countries {
		cs := &spec.Countries[i]
		c, err := newCountry(spec, cs, sup, opts)
		if err != nil {
			return nil, err
		}
		if err := co.router.Add(c.Code, c.Name, c.Server); err != nil {
			return nil, err
		}
		co.countries = append(co.countries, c)
	}
	return co, nil
}

// newCountry resolves one country's world and wires its fleet campaign,
// monitor and serving store.
func newCountry(spec *Spec, cs *CountrySpec, sup *fleet.Supervisor, opts Options) (*Country, error) {
	world, err := spec.World(cs)
	if err != nil {
		return nil, err
	}
	targets, origins := world.Targets()
	camp, err := JoinCountry(sup, cs.Code, world, targets, cs.Share, cs.Seed, opts.WrapTransport)
	if err != nil {
		return nil, err
	}

	monOpts := countrymon.Options{
		Fleet: camp,
		// Fleet transports own per-scan time; this clock only anchors the
		// Monitor's round scheduling.
		Clock:    scanner.NewVirtualClock(spec.Start),
		Targets:  targets,
		Start:    spec.Start,
		Interval: spec.Interval,
		Rounds:   spec.Rounds,
		Seed:     cs.Seed,
		Origins:  origins,
		Country:  cs.Code,
		Registry: opts.Registry,
		Bus:      opts.Bus,
	}
	if spec.CheckpointRoot != "" {
		monOpts.CheckpointPath = filepath.Join(spec.CheckpointRoot, cs.Code+".ckpt")
	}
	mon, err := countrymon.New(monOpts)
	if err != nil {
		return nil, fmt.Errorf("campaign: country %s: %w", cs.Code, err)
	}

	store := serve.NewStore(mon.Timeline())
	mon.AttachServe(store)
	asCfg := signals.ASConfig()
	var members []serve.Source
	for _, as := range world.Space.ASes() {
		src := mon.ServeASSource(as.ASN)
		members = append(members, src)
		code := strconv.FormatUint(uint64(as.ASN), 10)
		if _, err := store.Register("asn", code, src, serve.DetectWith(asCfg)); err != nil {
			return nil, fmt.Errorf("campaign: country %s: %w", cs.Code, err)
		}
	}
	if _, err := store.Register("country", cs.Code, serve.SumSource(members...), serve.DetectWith(asCfg)); err != nil {
		return nil, fmt.Errorf("campaign: country %s: %w", cs.Code, err)
	}
	srv := serve.NewServer(store)
	if opts.Registry != nil && opts.Bus != nil {
		srv.Observe(opts.Registry.Scope(cs.Code), opts.Bus.Scope(cs.Code))
	}

	return &Country{
		Code: cs.Code, Name: cs.Name,
		Share: cs.Share, Seed: cs.Seed,
		World: world, Monitor: mon, Store: store, Server: srv,
		camp: camp, run: countrymon.RunConfig{PreRound: world.PreRound(mon.SetRouted)},
	}, nil
}

// NewFleet builds the vantage pool a campaign's countries share: vantages
// v0 … v(n-1) scanning at rate packets/second with seed under a k-of-n
// quorum (0 = fleet default), reporting into reg and bus (a joined country
// through its Scope). A vantage has no transport of its own: each country
// joins with its own (JoinCountry), its own measurement world.
func NewFleet(vantages, quorum, rate int, seed uint64, reg *obs.Registry, bus *obs.Bus) (*fleet.Supervisor, error) {
	specs := make([]fleet.Spec, vantages)
	for i := range specs {
		name := "v" + strconv.Itoa(i)
		specs[i] = fleet.Spec{Name: name, Transport: func(int, time.Time) (scanner.Transport, scanner.Clock, error) {
			return nil, nil, fmt.Errorf("campaign: vantage %s scanned without a per-country transport", name)
		}}
	}
	sup, err := fleet.NewShared(specs, fleet.Config{
		Scan:     scanner.Config{Rate: rate, Seed: seed},
		Quorum:   quorum,
		Registry: reg,
		Bus:      bus,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return sup, nil
}

// JoinCountry attaches one country to a pool from NewFleet: a fleet campaign named
// code over targets, at share of the pool's rate and with seed, whose every
// vantage scans the country's world through VantageTransport. A vantage's
// scan of a round covers one shard of the targets at the campaign's rate.
func JoinCountry(sup *fleet.Supervisor, code string, world *sim.Scenario, targets []netmodel.Prefix, share float64, seed uint64,
	wrap func(country, vantage string, t scanner.Transport) scanner.Transport) (*fleet.Campaign, error) {
	ts, err := scanner.NewTargetSet(targets, nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: country %s: %w", code, err)
	}
	vantages := sup.Vantages()
	shard, rate := scanner.ShardLen(ts.Len(), 0, len(vantages)), sup.ScanRate(share)
	transports := make(map[string]fleet.TransportFunc)
	for _, vn := range vantages {
		transports[vn] = VantageTransport(code, vn, world, shard, rate, wrap)
	}
	camp, err := sup.Join(fleet.CampaignConfig{
		Name:       code,
		Targets:    ts,
		RateShare:  share,
		Seed:       seed,
		Transports: transports,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: country %s: %w", code, err)
	}
	return camp, nil
}

// VantageTransport builds the transport factory for one (country, vantage):
// the country's world on the wire from the scan's time on (sim.Scenario.Wire,
// for a scan of addrs addresses a round at rate), passed through wrap
// (Options.WrapTransport's shape) when it is non-nil. The simnet owns the
// scan's virtual time. The fleet keeps the transport and re-arms it for the
// vantage's later scans when it can (a simnet can, and so can a faults
// wrapper over one), so Wire and wrap run once per kept transport.
func VantageTransport(country, vantage string, world *sim.Scenario, addrs, rate int,
	wrap func(country, vantage string, t scanner.Transport) scanner.Transport) fleet.TransportFunc {
	return func(round int, at time.Time) (scanner.Transport, scanner.Clock, error) {
		t, clock := world.Wire(at, addrs, rate)
		if wrap != nil {
			t = wrap(country, vantage, t)
		}
		return t, clock, nil
	}
}

// Router returns the multi-country serve router (countries mounted in spec
// order; the first is the default the legacy routes alias).
func (co *Coordinator) Router() *serve.Router { return co.router }

// Countries returns the running countries in spec order.
func (co *Coordinator) Countries() []*Country { return co.countries }

// Country returns the running country with the given code, or nil.
func (co *Coordinator) Country(code string) *Country {
	for _, c := range co.countries {
		if c.Code == code {
			return c
		}
	}
	return nil
}

// Supervisor returns the shared fleet supervisor.
func (co *Coordinator) Supervisor() *fleet.Supervisor { return co.sup }

// Round returns the next round to be handled.
func (co *Coordinator) Round() int { return co.round }

// NextRound reports whether rounds remain.
func (co *Coordinator) NextRound() bool { return co.round < co.spec.Rounds }

// StepRound handles one round for every country, in spec order on the
// calling goroutine. A vantage window a country's world scripts is on that
// country's wire (VantageTransport), so the fleet measures it like any
// other fault: a dark round is recorded missing as a self-outage.
func (co *Coordinator) StepRound(ctx context.Context) error {
	for _, c := range co.countries {
		if _, err := c.Monitor.Step(ctx, c.run); err != nil {
			return fmt.Errorf("campaign: country %s round %d: %w", c.Code, co.round, err)
		}
	}
	co.round++
	return nil
}

// Run drives every remaining round to completion.
func (co *Coordinator) Run(ctx context.Context) error {
	for co.NextRound() {
		if err := co.StepRound(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every country's monitor resources.
func (co *Coordinator) Close() error {
	var first error
	for _, c := range co.countries {
		if err := c.Monitor.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FleetReport returns the country's per-campaign fleet accounting.
func (c *Country) FleetReport() fleet.CampaignReport { return c.camp.Report() }
