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
	"countrymon/internal/simnet"
)

// vantageAddr is the simulated vantage point, outside both the war script's
// real prefixes and the 100.64.0.0/10 model pool (TEST-NET-3, like
// internal/scenario's).
var vantageAddr = netmodel.MustParseAddr("203.0.113.1")

// Options tunes a Coordinator beyond what the Spec carries.
type Options struct {
	// Registry and Bus attach shared observability; per-country metrics are
	// labeled with the country code.
	Registry *obs.Registry
	Bus      *obs.Bus
	// WrapTransport, when non-nil, wraps every per-scan transport the
	// coordinator builds — the chaos tests inject scripted vantage faults
	// here, keyed by (country, vantage).
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
	// feed as PreRound.
	run countrymon.RunConfig

	scannedC *obs.Counter
	missingC *obs.Counter
	lastG    *obs.Gauge
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

	specs := make([]fleet.Spec, spec.Vantages)
	for i := range specs {
		name := "v" + strconv.Itoa(i)
		specs[i] = fleet.Spec{Name: name, Transport: unusedTransport(name)}
	}
	sup, err := fleet.NewShared(specs, fleet.Config{
		Scan: scanner.Config{
			Rate:    spec.Rate,
			Seed:    spec.Seed,
			Metrics: scanner.NewMetrics(opts.Registry),
			Events:  opts.Bus,
		},
		Quorum:   spec.Quorum,
		Registry: opts.Registry,
		Bus:      opts.Bus,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	co := &Coordinator{spec: spec, sup: sup, router: serve.NewRouter()}
	var rounds *obs.CounterVec
	var last *obs.GaugeVec
	if opts.Registry != nil {
		rounds = opts.Registry.CounterVec("campaign_rounds_total",
			"Coordinated campaign rounds handled, by country and outcome.", "country", "outcome")
		last = opts.Registry.GaugeVec("campaign_last_round",
			"Most recently handled round index, by country.", "country")
		opts.Registry.Gauge("campaign_countries",
			"Countries in the coordinated campaign.").Set(int64(len(spec.Countries)))
	}

	for i := range spec.Countries {
		cs := &spec.Countries[i]
		c, err := newCountry(spec, cs, sup, opts)
		if err != nil {
			return nil, err
		}
		if rounds != nil {
			c.scannedC = rounds.With(c.Code, "scanned")
			c.missingC = rounds.With(c.Code, "missing")
			c.lastG = last.With(c.Code)
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
	ts, err := scanner.NewTargetSet(targets, nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: country %s: %w", cs.Code, err)
	}

	transports := make(map[string]fleet.TransportFunc, spec.Vantages)
	for i := 0; i < spec.Vantages; i++ {
		vn := "v" + strconv.Itoa(i)
		transports[vn] = countryTransport(cs.Code, vn, world, opts.WrapTransport)
	}
	camp, err := sup.Join(fleet.CampaignConfig{
		Name:       cs.Code,
		Targets:    ts,
		RateShare:  cs.Share,
		Seed:       cs.Seed,
		Transports: transports,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: country %s: %w", cs.Code, err)
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
		srv.Observe(opts.Registry, opts.Bus)
	}

	return &Country{
		Code: cs.Code, Name: cs.Name,
		Share: cs.Share, Seed: cs.Seed,
		World: world, Monitor: mon, Store: store, Server: srv,
		camp: camp, run: countrymon.RunConfig{PreRound: world.PreRound(mon)},
	}, nil
}

// countryTransport builds the per-scan transport factory for one (country,
// vantage): a fresh packet-level simnet over the country's world, optionally
// fault-wrapped. The simnet owns the scan's virtual time.
func countryTransport(country, vn string, world *sim.Scenario,
	wrap func(string, string, scanner.Transport) scanner.Transport) fleet.TransportFunc {
	return func(round int, at time.Time) (scanner.Transport, scanner.Clock, error) {
		net := simnet.New(vantageAddr, world, at)
		var t scanner.Transport = net
		if wrap != nil {
			t = wrap(country, vn, t)
		}
		return t, net, nil
	}
}

// unusedTransport is the vantage-spec default factory. Every country joins
// with a full per-vantage override (each country is its own measurement
// world), so the default firing means a wiring bug, not a runtime condition.
func unusedTransport(name string) fleet.TransportFunc {
	return func(round int, at time.Time) (scanner.Transport, scanner.Clock, error) {
		return nil, nil, fmt.Errorf("campaign: vantage %s scanned without a per-country transport", name)
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
// calling goroutine. A country whose world scripts a vantage outage for the
// round is marked missing — without engaging the fleet, exactly like a solo
// Monitor — and the others scan normally.
func (co *Coordinator) StepRound(ctx context.Context) error {
	r := co.round
	for _, c := range co.countries {
		if err := c.step(ctx, r); err != nil {
			return fmt.Errorf("campaign: country %s round %d: %w", c.Code, r, err)
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

// step advances one country by one round through Monitor.Step — the world
// feeds ground-truth routedness or marks a scripted vantage outage missing,
// then the shared fleet scans — and bumps the country's metrics by what the
// store recorded.
func (c *Country) step(ctx context.Context, r int) error {
	if _, err := c.Monitor.Step(ctx, c.run); err != nil {
		return err
	}
	if c.Monitor.Store().Missing(r) {
		c.missingC.Inc()
	} else {
		c.scannedC.Inc()
	}
	c.lastG.Set(int64(r))
	return nil
}

// FleetReport returns the country's per-campaign fleet accounting.
func (c *Country) FleetReport() fleet.CampaignReport { return c.camp.Report() }
