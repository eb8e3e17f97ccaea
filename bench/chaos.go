package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"countrymon/internal/campaign"
	"countrymon/internal/dataset"
	"countrymon/internal/faults"
	"countrymon/internal/fleet"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/scanner"
	"countrymon/internal/serve"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
	"countrymon/internal/simnet"
	"countrymon/internal/timeline"
)

// campaign_chaos coordinates two countries over one shared three-vantage
// fleet while scripted faults hit one country's view of two vantages. One
// op is one coordinated round: StepRound for both countries, then each
// country's live-edge series fetched twice through the country routes.
var campaignChaos = &workload{
	name:         "campaign_chaos",
	why:          "two countries on one faulted three-vantage fleet with obs on: steals, the breaker, reprobe and FuseBlock corroboration, sim ground truth and the coordinator only run here; faults drive the tail",
	opsPerSecond: 30,
	sizeOf:       func(ops int) int { return max(ops, 20) }, // at least one checkpoint and one block of faults
	setups:       100,
	run:          runChaos,
}

const (
	chaosTimelineDays    = 365 // 4380 bi-hourly rounds; a run covers the first ones
	chaosVantages        = 3
	chaosCheckpointEvery = 16 // the Monitor's default cadence
	chaosFaulted         = "UA"
	chaosUnfaulted       = "RO"
)

var (
	chaosStart    = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	chaosInterval = 2 * time.Hour
	// chaosVantageAddr is the coordinator's simulated vantage address.
	chaosVantageAddr = netmodel.MustParseAddr("203.0.113.1")
)

// countryShape fixes a country's size; the seed decides everything else.
type countryShape struct {
	code, name   string
	ases, blocks int // blocks per AS
}

// chaosShape is the two worlds: 96 and 48 /24 blocks. (The package test
// uses far smaller ones.)
var chaosShape = []countryShape{
	{"UA", "Ukraine", 12, 8},
	{"RO", "Romania", 6, 8},
}

// chaosInputs is what the program receives: two scenario files, the
// campaign spec that names them, and the fault windows.
type chaosInputs struct {
	seed     uint64
	spec     *campaign.Spec
	blackout []faults.Window // on the faulted country's view of v0
	stall    []faults.Window // on its view of v1
	faulted  map[int]bool    // rounds inside any window
}

// scenario file wire form (internal/scenario's snake_case fields).
type scenarioDoc struct {
	Name        string          `json:"name"`
	Seed        uint64          `json:"seed"`
	Country     string          `json:"country"`
	CountryName string          `json:"country_name"`
	Start       string          `json:"start"`
	Interval    string          `json:"interval"`
	Days        int             `json:"days"`
	ASes        []scenarioAS    `json:"ases"`
	Events      []scenarioEvent `json:"events"`
	Score       scenarioScore   `json:"score"`
}

type scenarioAS struct {
	ASN        uint32  `json:"asn"`
	Name       string  `json:"name"`
	Region     string  `json:"region"`
	Blocks     int     `json:"blocks"`
	Density    int     `json:"density"`
	RespRate   float64 `json:"resp_rate"`
	DiurnalPct int     `json:"diurnal_pct"`
}

type scenarioEvent struct {
	Name      string   `json:"name"`
	At        string   `json:"at"`
	Duration  string   `json:"duration"`
	Effect    string   `json:"effect"`
	Magnitude float64  `json:"magnitude,omitempty"`
	ASes      []uint32 `json:"ases"`
}

type scenarioScore struct {
	ASes []uint32 `json:"ases"`
}

// newChaosInputs writes the scenario files under dir and builds the spec.
// rounds is how many rounds the run will step: fault windows are laid over
// exactly those.
func newChaosInputs(seed uint64, dir string, rounds int) (*chaosInputs, error) {
	regions := netmodel.Regions()
	in := &chaosInputs{seed: seed, faulted: map[int]bool{}}
	spec := &campaign.Spec{
		Vantages:       chaosVantages,
		Rounds:         chaosTimelineDays * 12,
		Interval:       chaosInterval,
		Start:          chaosStart,
		Seed:           seed,
		CheckpointRoot: filepath.Join(dir, "ckpt"),
	}
	if err := os.MkdirAll(spec.CheckpointRoot, 0o755); err != nil {
		return nil, err
	}
	for ci, shape := range chaosShape {
		cseed := hash2(seed, uint64(ci)+0xc0)
		doc := scenarioDoc{
			Name: "bench-" + shape.code, Seed: cseed,
			Country: shape.code, CountryName: shape.name,
			Start: chaosStart.Format(time.RFC3339), Interval: "2h", Days: chaosTimelineDays,
		}
		// Densities are a seeded shuffle of a fixed ladder, as in
		// solo_durable: the same total population under every seed.
		dens := make([]int, shape.ases)
		for i := range dens {
			dens[i] = 60 + 8*i
		}
		r := rng{s: cseed}
		for i := len(dens) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			dens[i], dens[j] = dens[j], dens[i]
		}
		for a := 0; a < shape.ases; a++ {
			doc.ASes = append(doc.ASes, scenarioAS{
				ASN:  uint32(64600 + 100*ci + a),
				Name: fmt.Sprintf("%s-net-%d", shape.code, a), Region: regions[r.intn(len(regions))].String(),
				Blocks: shape.blocks, Density: dens[a], RespRate: 0.8, DiurnalPct: 30,
			})
		}
		// One full outage and one partial dip per country, a day each,
		// somewhere in rounds [24, 96): ground truth for detection.
		doc.Events = []scenarioEvent{
			{Name: "outage", At: strconv.Itoa(2*(24+r.intn(36))) + "h", Duration: "24h",
				Effect: "bgp_down", ASes: []uint32{doc.ASes[1].ASN}},
			{Name: "dip", At: strconv.Itoa(2*(60+r.intn(36))) + "h", Duration: "24h",
				Effect: "ips_drop", Magnitude: 0.6, ASes: []uint32{doc.ASes[2].ASN}},
		}
		doc.Score.ASes = []uint32{doc.ASes[1].ASN}
		data, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, shape.code+".json")
		if err := writeFile(path, data); err != nil {
			return nil, err
		}
		spec.Countries = append(spec.Countries, campaign.CountrySpec{Code: shape.code, Name: shape.name, Model: path})
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	in.spec = spec

	// Faults, on the faulted country only. Every block of 20 rounds holds
	// two blacked-out rounds on v0 (10 % of rounds) at seeded positions in
	// its first twelve, and every other block a three-round stall on v1 in
	// its last six, so the two never meet and two vantages are always sound.
	window := func(from, to int, kind faults.Kind) faults.Window {
		for r := from; r <= to; r++ {
			in.faulted[r] = true
		}
		return faults.Window{
			From: chaosStart.Add(time.Duration(from)*chaosInterval - 30*time.Minute),
			To:   chaosStart.Add(time.Duration(to)*chaosInterval + 90*time.Minute),
			Kind: kind,
		}
	}
	for base := 0; base < rounds; base += 20 {
		a := int(hash3(seed, 0xb1, uint64(base)) % 12)
		b := (a + 1 + int(hash3(seed, 0xb2, uint64(base))%11)) % 12
		for _, off := range []int{a, b} {
			in.blackout = append(in.blackout, window(base+off, base+off, faults.Blackout))
		}
		if (base/20)%2 == 1 {
			s := base + 14 + int(hash3(seed, 0xb3, uint64(base))%4)
			in.stall = append(in.stall, window(s, s+2, faults.Stall))
		}
	}
	return in, nil
}

// wrap injects the faults; with st set every transport is also shimmed
// (outermost), for the traced pass.
func (in *chaosInputs) wrap(st *shimStats) func(country, vantage string, t scanner.Transport) scanner.Transport {
	return func(country, vantage string, t scanner.Transport) scanner.Transport {
		if country == chaosFaulted {
			switch vantage {
			case "v0":
				t = faults.NewTransport(t, nil, faults.Profile{Seed: in.seed, Windows: in.blackout})
			case "v1":
				t = faults.NewTransport(t, nil, faults.Profile{Seed: in.seed, Windows: in.stall})
			}
		}
		if st != nil {
			t = newShim(t, st)
		}
		return t
	}
}

// chaosStack is the coordinator as its users drive it.
type chaosStack struct {
	in      *chaosInputs
	co      *campaign.Coordinator
	reg     *obs.Registry
	bus     *obs.Bus
	fetch   []*edgeFetcher
	newTime time.Duration
}

func newChaosStack(in *chaosInputs) (*chaosStack, error) {
	s := &chaosStack{in: in, reg: obs.NewRegistry(), bus: obs.NewBus(0)}
	t0 := time.Now()
	co, err := campaign.New(in.spec, campaign.Options{Registry: s.reg, Bus: s.bus, WrapTransport: in.wrap(nil)})
	if err != nil {
		return nil, err
	}
	s.newTime = time.Since(t0)
	s.co = co
	for _, c := range co.Countries() {
		s.fetch = append(s.fetch, newEdgeFetcher(co.Router(), "/v1/countries/"+c.Code+"/series", c.Store))
	}
	return s, nil
}

func (s *chaosStack) close() { _ = s.co.Close() }

// round is one op: StepRound, then every country's live-edge fetch and its
// repeat.
func (s *chaosStack) round(ctx context.Context) error {
	r := s.co.Round()
	if err := s.co.StepRound(ctx); err != nil {
		return err
	}
	for _, f := range s.fetch {
		f.fetch(r)
	}
	return nil
}

// chaosTruth holds a country's store to sim ground truth over the first n
// rounds: no block may read dark while the world says it answers (a false
// block outage), and the unfaulted country must not lose a round or any
// coverage to the other country's faults.
func chaosTruth(c *checker, code string, world *sim.Scenario, st *dataset.Store, n int) (mismatches int) {
	for r := 0; r < n; r++ {
		if st.Missing(r) {
			c.check(code != chaosUnfaulted, "%s round %d missing", code, r)
			continue
		}
		if code == chaosUnfaulted {
			c.check(st.Coverage(r) >= 1, "%s round %d coverage %.3f", code, r, st.Coverage(r))
		}
		at := world.TL.Time(r)
		falseOut := 0
		for bi := 0; bi < st.NumBlocks(); bi++ {
			truth := min(world.BlockStateAt(bi, at).Resp, dataset.RespCap)
			got := st.Resp(bi, r)
			if got == 0 && truth > 0 {
				falseOut++
			}
			if got != truth {
				mismatches++
			}
		}
		c.check(falseOut == 0, "%s round %d: %d false block outages", code, r, falseOut)
	}
	return mismatches
}

func runChaos(cfg runConfig, w *workload, n int) (*runResult, error) {
	ctx := context.Background()
	ck := &checker{}
	ms := newMetricSet()
	res := &runResult{Hashes: map[string]string{}}
	nominal := time.Duration(cfg.seconds * float64(time.Second))

	reps := w.setups
	if cfg.trace {
		n, reps = w.sizeOf(n/2), 1
	}
	stack, setups, err := repeatSetup(reps, cfg.scratch,
		func(dir string) (*chaosStack, error) {
			in, err := newChaosInputs(cfg.seed, dir, n)
			if err != nil {
				return nil, err
			}
			return newChaosStack(in)
		}, (*chaosStack).close)
	if err != nil {
		return nil, err
	}
	defer stack.close()

	// A traced run steps every round through a fleet the benchmark assembles
	// itself, right after the coordinator has handled it.
	var tr *tracer
	var stepped *chaosStepped
	if cfg.trace {
		tr = newTracer()
		in2, err := newChaosInputs(cfg.seed, filepath.Join(cfg.scratch, "stepped"), n)
		if err != nil {
			return nil, err
		}
		if stepped, err = newChaosStepped(in2, tr); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	mem0 := readMem()
	log, err := timedOps(n, nominal, func(int) error { return stack.round(ctx) }, func(r int) error {
		for _, f := range stack.fetch {
			if err := f.verify(r); err != nil {
				ck.failf("%v", err)
			}
		}
		if stepped == nil {
			return nil
		}
		return stepped.round(ctx, r, ck)
	})
	if err != nil {
		return nil, err
	}
	mem := readMem().since(mem0)
	done := len(log.lat)
	sum := log.summarize(0.95, segments)

	var probes uint64
	live := map[string]string{} // serialized-store hash per country
	for _, c := range stack.co.Countries() {
		h, err := storeHash(c.Monitor.Store())
		if err != nil {
			return nil, err
		}
		live[c.Code] = h
		res.Hashes["store."+c.Code] = contentHash(c.Monitor.Store())
		chaosTruth(ck, c.Code, c.World, c.Monitor.Store(), done)
		probes += c.Monitor.CampaignStats().Sent
	}
	ua, ro := stack.co.Country(chaosFaulted).FleetReport(), stack.co.Country(chaosUnfaulted).FleetReport()
	ck.check(ua.Steals > 0 || done < 20, "faulted country recorded no steals")
	ck.check(ro.DegradedRounds == 0 && ro.SelfOutages == 0, "unfaulted country degraded in %d rounds", ro.DegradedRounds)

	res.Done, res.Attempted = done, done
	res.OpUS = usList(log.lat)
	if !cfg.trace {
		endToEndMetrics(ms, setups, sum.cpuPerOp, mem, float64(done), done, peakRSSMiB())
		return res.finish(ms, ck, false)
	}

	for _, c := range stepped.countries {
		got, err := storeHash(c.store)
		if err != nil {
			return nil, err
		}
		want := live[c.code]
		ck.check(got == want, "stepped %s store hash %s differs from the untraced store %s", c.code, got[:12], want[:12])
	}

	ms.set("scanner.probes_per_s", float64(probes)/log.ends[done-1].Seconds(), done)
	sum.wallMetrics(ms)
	ms.set("campaign.new_s", stack.newTime.Seconds(), 1)
	ms.set("obs.events_per_round", float64(stack.bus.Seq())/float64(done), done)
	ms.set("obs.bus_dropped", float64(stack.bus.Dropped()), 1)
	scrapes := make([]time.Duration, 0, 20)
	mh, mw := obs.MetricsHandler(stack.reg), newRespWriter()
	for i := 0; i < cap(scrapes); i++ {
		t0 := time.Now()
		get(mh, mw, newGET("/metrics", ""))
		scrapes = append(scrapes, time.Since(t0))
	}
	ck.check(mw.status == 200 && len(mw.body) > 0, "/metrics scrape status %d", mw.status)
	ms.set("obs.metrics_scrape_us", us(medianDur(scrapes)), len(scrapes))
	ms.set("fleet.degraded_rounds", float64(ua.DegradedRounds+ro.DegradedRounds), done)
	ms.set("fleet.self_outages", float64(ua.SelfOutages+ro.SelfOutages), done)
	ms.set("fleet.quarantines", float64(len(stack.co.Supervisor().Report().Quarantined)), done)
	if fused := ua.FusedAlive + ua.FusedDown + ua.FusedHeld + ro.FusedAlive + ro.FusedDown + ro.FusedHeld; fused > 0 {
		ms.set("signals.fused_down_ratio", float64(ua.FusedDown+ro.FusedDown)/float64(fused), fused)
	}
	stepped.metrics(ms, log.lat)
	fuseMicroLoop(ms)
	blockStateMicroLoop(ms, stepped.countries[0].world, 64)
	commonLayerMetrics(ms)

	res.Spans = tr.spans
	return res.finish(ms, ck, true)
}

// --- stepped mode ---

// steppedCountry is one country's pipeline with the Monitor taken apart.
type steppedCountry struct {
	code    string
	world   *sim.Scenario
	camp    *fleet.Campaign
	targets *scanner.TargetSet
	store   *dataset.Store
	builder *signals.Builder
	sstore  *serve.Store
	fetch   *edgeFetcher
	ckpt    string

	lastData  int
	sinceCkpt int
}

// chaosStepped rebuilds what campaign.New wires — one shared fleet, and per
// country a joined campaign, a store, a streaming builder and a serve store
// — from the layers' public constructors, and then drives a round through
// them one call at a time.
type chaosStepped struct {
	in        *chaosInputs
	tr        *tracer
	stats     *shimStats
	sup       *fleet.Supervisor
	countries []*steppedCountry
	router    *serve.Router

	tally            scanTally
	primary          uint64 // probes the primary scans were due to send
	steals, suspects int
	rounds           int
	worldBuild       time.Duration
}

func newChaosStepped(in *chaosInputs, tr *tracer) (*chaosStepped, error) {
	spec := in.spec
	reg, bus := obs.NewRegistry(), obs.NewBus(0)
	s := &chaosStepped{in: in, tr: tr, stats: &shimStats{}, router: serve.NewRouter()}

	specs := make([]fleet.Spec, spec.Vantages)
	for i := range specs {
		name := "v" + strconv.Itoa(i)
		specs[i] = fleet.Spec{Name: name, Transport: func(int, time.Time) (scanner.Transport, scanner.Clock, error) {
			return nil, nil, fmt.Errorf("vantage %s scanned without a per-country transport", name)
		}}
	}
	sup, err := fleet.NewShared(specs, fleet.Config{
		Scan:     scanner.Config{Rate: spec.Rate, Seed: spec.Seed, Metrics: scanner.NewMetrics(reg), Events: bus},
		Quorum:   spec.Quorum,
		Registry: reg, Bus: bus,
	})
	if err != nil {
		return nil, err
	}
	s.sup = sup
	wrap := in.wrap(s.stats)
	tl := timeline.New(spec.Start, spec.End(), spec.Interval)
	for i := range spec.Countries {
		cs := &spec.Countries[i]
		w0 := time.Now()
		world, err := spec.World(cs)
		if err != nil {
			return nil, err
		}
		s.worldBuild += time.Since(w0)
		targets, err := scanner.NewTargetSet(asPrefixes(world.Space), nil)
		if err != nil {
			return nil, err
		}
		transports := map[string]fleet.TransportFunc{}
		for v := 0; v < spec.Vantages; v++ {
			vn := "v" + strconv.Itoa(v)
			transports[vn] = func(round int, at time.Time) (scanner.Transport, scanner.Clock, error) {
				net := simnet.New(chaosVantageAddr, world.Responder(), at)
				return wrap(cs.Code, vn, net), net, nil
			}
		}
		camp, err := sup.Join(fleet.CampaignConfig{
			Name: cs.Code, Targets: targets, RateShare: cs.Share, Seed: cs.Seed, Transports: transports,
		})
		if err != nil {
			return nil, err
		}
		c := &steppedCountry{
			code: cs.Code, world: world, camp: camp, targets: targets,
			store:    dataset.NewStore(tl, targets.Blocks()),
			ckpt:     filepath.Join(spec.CheckpointRoot, cs.Code+".ckpt"),
			lastData: -1,
		}
		c.builder = signals.NewStreamingBuilder(c.store, world.Space, signals.DefaultMinCoverage)
		c.builder.Observe(signals.NewMetrics(reg))
		c.sstore = serve.NewStore(tl)
		asCfg := signals.ASConfig()
		var members []serve.Source
		for _, as := range world.Space.ASes() {
			src := serve.SeriesSource(c.builder.AS(as.ASN))
			members = append(members, src)
			if _, err := c.sstore.Register("asn", strconv.FormatUint(uint64(as.ASN), 10), src, serve.DetectWith(asCfg)); err != nil {
				return nil, err
			}
		}
		if _, err := c.sstore.Register("country", cs.Code, serve.SumSource(members...), serve.DetectWith(asCfg)); err != nil {
			return nil, err
		}
		srv := serve.NewServer(c.sstore)
		srv.Observe(reg, bus)
		if err := s.router.Add(cs.Code, cs.Name, srv); err != nil {
			return nil, err
		}
		c.fetch = newEdgeFetcher(s.router, "/v1/countries/"+cs.Code+"/series", c.sstore)
		s.countries = append(s.countries, c)
	}
	return s, nil
}

func (s *chaosStepped) round(ctx context.Context, r int, ck *checker) error {
	root := s.tr.begin("campaign.step_round", -1, r)
	for _, c := range s.countries {
		if err := s.stepCountry(ctx, c, r, root); err != nil {
			return fmt.Errorf("stepped %s round %d: %w", c.code, r, err)
		}
	}
	s.tr.end(root)
	for _, c := range s.countries {
		req := c.fetch.request(r)
		s.tr.do("serve.first_render", -1, r, func() { get(c.fetch.h, c.fetch.w1, req) })
		s.tr.do("serve.first_hit", -1, r, func() { get(c.fetch.h, c.fetch.w2, req) })
		if err := c.fetch.verify(r); err != nil {
			ck.failf("stepped %v", err)
		}
	}
	s.rounds++
	return nil
}

// stepCountry is Country.step and Monitor.ScanRoundContext, inlined.
func (s *chaosStepped) stepCountry(ctx context.Context, c *steppedCountry, r, parent int) error {
	tr := s.tr
	if c.world.Missing[r] {
		return fmt.Errorf("scripted vantage outage: the benchmark's worlds have none")
	}
	at := c.world.TL.Time(r)
	tr.do("campaign.set_routed", parent, r, func() {
		for bi := range c.store.Blocks() {
			c.store.SetRound(bi, r, c.store.Resp(bi, r), c.world.BlockStateAt(bi, at).Routed)
		}
	})

	prev := fleet.PrevFunc(func(int) (int, bool) { return 0, false })
	if last := c.lastData; last >= 0 {
		prev = func(bi int) (int, bool) { return c.store.Resp(bi, last), true }
	}
	before := s.stats.snapshot()
	a0 := heapAllocs()
	scan := tr.begin("fleet.scan_round", parent, r)
	rd, rep, err := c.camp.ScanRound(ctx, r, at, prev)
	tr.end(scan)
	if err != nil {
		return err
	}
	s.tally.add(rd, heapAllocs()-a0)
	d := s.stats.snapshot().sub(before)
	tr.aggregate("simnet.write", scan, r, time.Duration(d.writeNs), d.writeCalls)
	tr.aggregate("simnet.read", scan, r, time.Duration(d.readNs), d.readCalls)
	s.steals += rep.Steals
	s.suspects += rep.Suspects
	s.primary += c.targets.Len()
	s.tally.sent += uint64(d.writePkts)

	var err2 error
	tr.do("dataset.ingest", parent, r, func() {
		switch {
		case rep.SelfOutage:
			c.store.SetCoverage(r, 0)
			c.store.SetMissing(r)
		case rd.RecvDead:
			c.store.SetCoverage(r, rd.Coverage())
			c.store.SetMissing(r)
		default:
			c.store.AddRoundData(r, rd)
			c.lastData = r
			if rd.Partial {
				c.store.SetCoverage(r, rd.Coverage())
			}
			c.store.SetDone(r)
		}
	})
	tr.do("signals.fold", parent, r, func() { err2 = c.builder.Fold(r) })
	if err2 != nil {
		return err2
	}
	tr.do("serve.advance", parent, r, func() { err2 = c.sstore.Advance(r) })
	if err2 != nil {
		return err2
	}
	if c.sinceCkpt++; c.sinceCkpt >= chaosCheckpointEvery {
		c.sinceCkpt = 0
		tr.do("dataset.checkpoint", parent, r, func() { err2 = checkpoint(c.store, c.ckpt) })
	}
	return err2
}

func (s *chaosStepped) metrics(ms *metricSet, lat []time.Duration) {
	tr := s.tr
	scans := len(s.tally.allocs)
	sent := float64(s.tally.sent)
	st := s.stats.snapshot()
	roundPipelineMetrics(ms, tr, &s.tally, st, s.rounds, lat)

	scan := tr.durations("fleet.scan_round")
	scanTotal := float64(sumDur(scan))
	ms.set("fleet.scan_round_ms", msec(medianDur(scan)), len(scan))
	ms.set("fleet.steals_per_round", float64(s.steals)/float64(s.rounds), s.rounds)
	ms.set("fleet.suspects_per_round", float64(s.suspects)/float64(s.rounds), s.rounds)
	ms.set("fleet.reprobe_share", sent/float64(s.primary)-1, scans)
	ms.set("scanner.run_ns_per_probe", scanTotal/sent, scans)
	// Shards of one fleet round scan on up to par.Workers goroutines, so
	// the shim's summed time is held against that many scan walls, and the
	// scanner's own share of a scan is what the lanes did not spend inside
	// the transport.
	lanes := float64(min(runtime.GOMAXPROCS(0), chaosVantages))
	busy := float64(st.writeNs + st.readNs)
	ms.set("simnet.busy_share_of_round", busy/(scanTotal*lanes), scans)
	ms.set("scanner.self_ns_per_probe", (scanTotal*lanes-busy)/sent, scans)

	ms.set("sim.world_build_s", s.worldBuild.Seconds(), len(s.countries))
	setMedianUS(ms, tr, "campaign.set_routed_us_per_round", "campaign.set_routed")
	ms.set("dataset.file_bytes", float64(fileSize(s.countries[0].ckpt)), 1)
	// StepRound against the per-country layer spans it encloses: what the
	// coordinator itself adds.
	stepRound := tr.selfOf("campaign.step_round")
	ms.set("campaign.step_overhead_us", us(medianDur(stepRound)), len(stepRound))

	first := s.in.spec.Countries[0]
	val := scanner.NewValidator(first.Seed^0xc0ffee, 1, chaosStart)
	packetMicroLoops(ms, s.stats, val, s.countries[0].targets.Len(), first.Seed)
}
