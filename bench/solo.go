package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	countrymon "countrymon"
	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/serve"
	"countrymon/internal/signals"
	"countrymon/internal/simnet"
	"countrymon/internal/timeline"
)

// solo_durable is the paper's deployment: one vantage scanning a /16 at the
// campaign's 8000 pps over one simulated wire, every round journalled and
// checkpointed, signals folded as rounds land, a serve store attached and
// polled at the live edge. One op is one round: Step entered until the
// repeat fetch of that round's series has been written.
var soloDurable = &workload{
	name:         "solo_durable",
	why:          "the paper's deployment: one vantage, every round journalled and checkpointed; scanner and icmp do nearly all the work, fleet, fusion, sim and campaign none; the only path through the RoundLog",
	opsPerSecond: 25,
	sizeOf:       soloSize,
	setups:       100,
	run:          runSolo,
}

const (
	soloASes            = 16
	soloTimelineRounds  = 4380 // one bi-hourly year; a run covers its first rounds
	soloCheckpointEvery = 16
	// soloKillPast is how many rounds past a checkpoint the process model is
	// killed, so recovery has both a snapshot to load and a journal tail.
	soloKillPast    = 7
	soloRecoverReps = 20
	soloCountry     = "UA"
)

var (
	soloStart    = time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC)
	soloInterval = 2 * time.Hour
	// soloPrefix is the target: a /16, 256 blocks, 65 536 probes a round.
	// (The package test scans a /20 instead.)
	soloPrefix  = netmodel.MustParsePrefix("10.16.0.0/16")
	soloVantage = netmodel.MustParseAddr("198.51.100.1")
)

// soloSize rounds the op budget to 16k+7 rounds: the last checkpoint is
// then exactly soloKillPast rounds behind when the run "dies".
func soloSize(ops int) int {
	k := (ops - soloKillPast + soloCheckpointEvery/2) / soloCheckpointEvery
	if k < 1 {
		k = 1
	}
	return k*soloCheckpointEvery + soloKillPast
}

// soloInputs is everything the program receives: the target prefix, the
// origin map and a responder table. Per-block densities are a seeded
// shuffle of a fixed ladder, so every seed probes a different world of the
// same total size.
type soloInputs struct {
	seed    uint64
	base    netmodel.BlockID
	blocks  int
	dens    []uint8
	origins map[netmodel.BlockID]netmodel.ASN
	asns    []netmodel.ASN
}

func newSoloInputs(seed uint64) *soloInputs {
	blocks := soloPrefix.NumBlocks()
	in := &soloInputs{seed: seed, base: soloPrefix.Base.Block(), blocks: blocks,
		dens: make([]uint8, blocks), origins: make(map[netmodel.BlockID]netmodel.ASN, blocks)}
	for i := range in.dens {
		in.dens[i] = uint8(40 + i*128/blocks) // a ladder from 40 to 167
	}
	r := rng{s: seed ^ 0x5010}
	for i := blocks - 1; i > 0; i-- {
		j := r.intn(i + 1)
		in.dens[i], in.dens[j] = in.dens[j], in.dens[i]
	}
	for a := 0; a < soloASes; a++ {
		in.asns = append(in.asns, netmodel.ASN(64512+a))
	}
	for bi := 0; bi < blocks; bi++ {
		in.origins[in.base+netmodel.BlockID(bi)] = in.asns[bi*soloASes/blocks]
	}
	return in
}

// count is ground truth: how many hosts of block bi answer in a round.
func (in *soloInputs) count(bi, round int) int {
	return int(in.dens[bi]) + int(hash3(in.seed, uint64(bi), uint64(round))%5) - 2
}

// soloResponder answers probes from the table: host h of a block replies
// when h is below the block's count for the round the probe falls in. The
// per-round counts are cached, so a probe costs two array reads.
type soloResponder struct {
	in     *soloInputs
	round  int
	counts []int
}

func (in *soloInputs) responder() *soloResponder {
	return &soloResponder{in: in, round: -1, counts: make([]int, in.blocks)}
}

func (r *soloResponder) Respond(dst netmodel.Addr, at time.Time) simnet.Reply {
	bi := int(dst.Block() - r.in.base)
	if bi < 0 || bi >= r.in.blocks {
		return simnet.Reply{Kind: simnet.NoReply}
	}
	if round := int(at.Sub(soloStart) / soloInterval); round != r.round {
		r.round = round
		for i := range r.counts {
			r.counts[i] = r.in.count(i, round)
		}
	}
	h := int(dst.HostByte())
	if h >= r.counts[bi] {
		return simnet.Reply{Kind: simnet.NoReply}
	}
	return simnet.Reply{Kind: simnet.EchoReply, RTT: time.Duration(20+h%16) * time.Millisecond}
}

func (in *soloInputs) options(dir string, tr countrymon.Transport) countrymon.Options {
	return countrymon.Options{
		Transport:       tr,
		Targets:         []netmodel.Prefix{soloPrefix},
		Start:           soloStart,
		Interval:        soloInterval,
		Rounds:          soloTimelineRounds,
		Seed:            in.seed,
		Origins:         in.origins,
		Country:         soloCountry,
		CheckpointPath:  filepath.Join(dir, "solo.ckpt"),
		CheckpointEvery: soloCheckpointEvery,
		RoundLogPath:    filepath.Join(dir, "solo.cmrl"),
		StreamSignals:   true,
		// Registry and Bus stay nil: obs is off here and on in
		// campaign_chaos, so instrumentation cost shows as a difference.
	}
}

// registerSolo registers the 16 AS entities and the country on a store.
func registerSolo(store *serve.Store, in *soloInputs, src func(netmodel.ASN) serve.Source) error {
	asCfg := signals.ASConfig()
	var members []serve.Source
	for _, asn := range in.asns {
		s := src(asn)
		members = append(members, s)
		if _, err := store.Register("asn", strconv.FormatUint(uint64(asn), 10), s, serve.DetectWith(asCfg)); err != nil {
			return err
		}
	}
	_, err := store.Register("country", soloCountry, serve.SumSource(members...), serve.DetectWith(asCfg))
	return err
}

func soloRouter(store *serve.Store) (*serve.Router, error) {
	router := serve.NewRouter()
	return router, router.Add(soloCountry, "Ukraine", serve.NewServer(store))
}

// soloStack is the live system as its users drive it.
type soloStack struct {
	in    *soloInputs
	dir   string
	mon   *countrymon.Monitor
	fetch *edgeFetcher
	rc    countrymon.RunConfig
}

func newSoloStack(in *soloInputs, dir string) (*soloStack, error) {
	net := simnet.New(soloVantage, in.responder(), soloStart)
	mon, err := countrymon.New(in.options(dir, net))
	if err != nil {
		return nil, err
	}
	store := serve.NewStore(mon.Timeline())
	mon.AttachServe(store)
	if err := registerSolo(store, in, mon.ServeASSource); err != nil {
		return nil, err
	}
	router, err := soloRouter(store)
	if err != nil {
		return nil, err
	}
	s := &soloStack{in: in, dir: dir, mon: mon, fetch: newEdgeFetcher(router, "/v1/series", store)}
	blocks := mon.Store().Blocks()
	s.rc = countrymon.RunConfig{PreRound: func(round int) error {
		// No collector in this deployment: routedness comes from a table
		// dump that lists every target block.
		for _, blk := range blocks {
			mon.SetRouted(blk, round, true, 0)
		}
		return nil
	}}
	return s, nil
}

func (s *soloStack) close() { _ = s.mon.Close() }

// round is one op: Step, then the live-edge fetch and its repeat.
func (s *soloStack) round(ctx context.Context) (countrymon.Stats, error) {
	r := s.mon.Round()
	st, err := s.mon.Step(ctx, s.rc)
	if err != nil {
		return st, err
	}
	s.fetch.fetch(r)
	return st, nil
}

// soloTruth checks a store's first n rounds against the responder table.
func soloTruth(c *checker, in *soloInputs, st *dataset.Store, n int) {
	for r := 0; r < n; r++ {
		bad := 0
		for bi := 0; bi < in.blocks; bi++ {
			if st.Resp(bi, r) != in.count(bi, r) {
				bad++
			}
		}
		c.check(bad == 0 && st.Done(r) && !st.Missing(r), "round %d: %d blocks differ from the responder table", r, bad)
	}
}

// soloRecover resumes from dir's checkpoint and journal reps times and
// returns the durations; the first resumed store must hash to want and be
// positioned at round n.
func soloRecover(c *checker, in *soloInputs, dir string, n, reps int, want string) ([]time.Duration, error) {
	var durs []time.Duration
	for i := 0; i < reps; i++ {
		opts := in.options(dir, simnet.New(soloVantage, in.responder(), soloStart))
		opts.ResumeFrom = opts.CheckpointPath
		t0 := time.Now()
		mon, err := countrymon.New(opts)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		durs = append(durs, time.Since(t0))
		if i == 0 {
			got, err := storeHash(mon.Store())
			if err != nil {
				return nil, err
			}
			c.check(mon.Round() == n, "resumed at round %d, want %d", mon.Round(), n)
			c.check(got == want, "resumed store hash %s differs from the live store %s", got[:12], want[:12])
		}
		if err := mon.Close(); err != nil {
			return nil, err
		}
	}
	return durs, nil
}

func runSolo(cfg runConfig, w *workload, n int) (*runResult, error) {
	ctx := context.Background()
	ck := &checker{}
	ms := newMetricSet()
	res := &runResult{Hashes: map[string]string{}}
	nominal := time.Duration(cfg.seconds * float64(time.Second))

	reps := w.setups
	if cfg.trace {
		n, reps = soloSize(n/2), 1
	}
	in := newSoloInputs(cfg.seed)
	stack, setups, err := repeatSetup(reps, cfg.scratch,
		func(dir string) (*soloStack, error) { return newSoloStack(newSoloInputs(cfg.seed), dir) },
		(*soloStack).close)
	if err != nil {
		return nil, err
	}
	defer stack.close()

	// A traced run steps every round through the benchmark's own pipeline
	// right after the Monitor has handled it.
	var tr *tracer
	var stepped *soloStepped
	if cfg.trace {
		tr = newTracer()
		if stepped, err = newSoloStepped(in, filepath.Join(cfg.scratch, "stepped"), tr); err != nil {
			return nil, err
		}
		defer stepped.close()
	}

	var probes uint64
	runtime.GC()
	mem0 := readMem()
	log, err := timedOps(n, nominal, func(int) error {
		st, err := stack.round(ctx)
		probes += st.Sent
		return err
	}, func(r int) error {
		if err := stack.fetch.verify(r); err != nil {
			ck.failf("%v", err)
		}
		if stepped == nil {
			return nil
		}
		if err := stepped.round(ctx, r); err != nil {
			return err
		}
		if err := stepped.fetch.verify(r); err != nil {
			ck.failf("stepped %v", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mem := readMem().since(mem0)
	done := len(log.lat)
	sum := log.summarize(0.95, segments)

	// The process model dies here: no final checkpoint, the journal holds
	// the rounds since the last one. A fresh monitor must come back with
	// the same store.
	live, err := storeHash(stack.mon.Store())
	if err != nil {
		return nil, err
	}
	res.Hashes["store"] = contentHash(stack.mon.Store())
	soloTruth(ck, in, stack.mon.Store(), done)
	stack.close()
	recoverDurs, err := soloRecover(ck, in, stack.dir, done, soloRecoverReps, live)
	if err != nil {
		return nil, err
	}

	res.Done, res.Attempted = done, done
	res.OpUS = usList(log.lat)
	if !cfg.trace {
		endToEndMetrics(ms, setups, sum.cpuPerOp, mem, float64(done), done, peakRSSMiB())
		return res.finish(ms, ck, false)
	}

	got, err := storeHash(stepped.store)
	if err != nil {
		return nil, err
	}
	ck.check(got == live, "stepped store hash %s differs from the untraced store %s", got[:12], live[:12])
	stepped.close()
	// A real monitor must also be able to resume from what the stepped
	// pipeline left on disk.
	if _, err := soloRecover(ck, in, stepped.dir, done, 1, live); err != nil {
		return nil, err
	}

	ms.set("countrymon.recover_ms", msec(medianDur(recoverDurs)), len(recoverDurs))
	ms.set("countrymon.new_ms", msec(medianDur(wallOf(setups))), len(setups))
	ms.set("scanner.probes_per_s", float64(probes)/log.ends[done-1].Seconds(), done)
	sum.wallMetrics(ms)
	stepped.metrics(ms, sum, log.lat)
	if err := soloStorageMetrics(ms, stack.dir, in); err != nil {
		return nil, err
	}
	commonLayerMetrics(ms)

	res.Spans = tr.spans
	return res.finish(ms, ck, true)
}

// --- stepped mode ---

// soloStepped is the same round driven by the benchmark itself: each
// layer's public function called in pipeline order with a span around it.
// It must end with a store byte-identical to the Monitor's, which is what
// licenses reading its spans as the untraced run's layers.
type soloStepped struct {
	in      *soloInputs
	dir     string
	tr      *tracer
	net     *simnet.Network
	shim    *shim
	stats   *shimStats
	tl      *timeline.Timeline
	targets *scanner.TargetSet
	store   *dataset.Store
	rl      *dataset.RoundLog
	builder *signals.Builder
	sstore  *serve.Store
	fetch   *edgeFetcher
	ckpt    string

	tally    scanTally
	logBytes []float64
}

func newSoloStepped(in *soloInputs, dir string, tr *tracer) (*soloStepped, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &soloStepped{in: in, dir: dir, tr: tr, stats: &shimStats{}}
	s.net = simnet.New(soloVantage, in.responder(), soloStart)
	s.shim = newShim(s.net, s.stats)
	opts := in.options(dir, s.shim)
	s.ckpt = opts.CheckpointPath
	s.tl = timeline.New(soloStart, soloStart.Add(time.Duration(soloTimelineRounds-1)*soloInterval), soloInterval)
	var err error
	if s.targets, err = scanner.NewTargetSet(opts.Targets, nil); err != nil {
		return nil, err
	}
	s.store = dataset.NewStore(s.tl, s.targets.Blocks())

	// The Monitor derives its Space from the origin map, one /24 per block.
	byAS := map[netmodel.ASN][]netmodel.Prefix{}
	for _, blk := range s.store.Blocks() {
		asn := in.origins[blk]
		byAS[asn] = append(byAS[asn], netmodel.Prefix{Base: blk.First(), Bits: 24})
	}
	var ases []*netmodel.AS
	for _, asn := range in.asns {
		ases = append(ases, &netmodel.AS{ASN: asn, Prefixes: byAS[asn]})
	}
	space, err := netmodel.BuildSpace(ases)
	if err != nil {
		return nil, err
	}
	s.builder = signals.NewStreamingBuilder(s.store, space, signals.DefaultMinCoverage)
	s.sstore = serve.NewStore(s.tl)
	err = registerSolo(s.sstore, in, func(asn netmodel.ASN) serve.Source {
		return serve.SeriesSource(s.builder.AS(asn))
	})
	if err != nil {
		return nil, err
	}
	router, err := soloRouter(s.sstore)
	if err != nil {
		return nil, err
	}
	s.fetch = newEdgeFetcher(router, "/v1/series", s.sstore)
	if s.rl, err = dataset.OpenRoundLog(opts.RoundLogPath, s.store); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *soloStepped) close() {
	if s.rl != nil {
		_ = s.rl.Close()
		s.rl = nil
	}
}

func (s *soloStepped) round(ctx context.Context, r int) error {
	tr := s.tr
	at := s.tl.Time(r)
	if wait := at.Sub(s.net.Now()); wait > 0 {
		s.net.Sleep(wait)
	}
	tr.do("countrymon.set_routed", -1, r, func() {
		for bi := range s.store.Blocks() {
			s.store.SetRound(bi, r, s.store.Resp(bi, r), true)
		}
	})

	var rd *scanner.RoundData
	var err error
	before := s.stats.snapshot()
	a0 := heapAllocs()
	scan := tr.begin("scanner.run", -1, r)
	rd, err = scanner.New(s.shim, scanner.Config{
		Seed: s.in.seed, Epoch: uint32(r + 1), Clock: s.shim, Metrics: scanner.NewMetrics(nil),
	}).RunContext(ctx, s.targets)
	tr.end(scan)
	if err != nil {
		return err
	}
	s.tally.add(rd, heapAllocs()-a0)
	s.tally.sent += rd.Stats.Sent
	d := s.stats.snapshot().sub(before)
	tr.aggregate("simnet.write", scan, r, time.Duration(d.writeNs), d.writeCalls)
	tr.aggregate("simnet.read", scan, r, time.Duration(d.readNs), d.readCalls)

	tr.do("dataset.ingest", -1, r, func() {
		s.store.AddRoundData(r, rd)
		s.store.SetDone(r)
	})
	size0 := fileSize(filepath.Join(s.dir, "solo.cmrl"))
	tr.do("dataset.roundlog_append", -1, r, func() { err = s.rl.Append(s.store, r) })
	if err != nil {
		return err
	}
	s.logBytes = append(s.logBytes, float64(fileSize(filepath.Join(s.dir, "solo.cmrl"))-size0))
	tr.do("signals.fold", -1, r, func() { err = s.builder.Fold(r) })
	if err != nil {
		return err
	}
	tr.do("serve.advance", -1, r, func() { err = s.sstore.Advance(r) })
	if err != nil {
		return err
	}
	if (r+1)%soloCheckpointEvery == 0 {
		tr.do("dataset.checkpoint", -1, r, func() { err = checkpoint(s.store, s.ckpt) })
		if err != nil {
			return err
		}
	}
	req := s.fetch.request(r)
	tr.do("serve.first_render", -1, r, func() { get(s.fetch.h, s.fetch.w1, req) })
	tr.do("serve.first_hit", -1, r, func() { get(s.fetch.h, s.fetch.w2, req) })
	return nil
}

// metrics turns the stepped spans into the per-layer metrics of a round
// workload. sum and lat are the untraced pass over the same rounds.
func (s *soloStepped) metrics(ms *metricSet, sum opSummary, lat []time.Duration) {
	tr := s.tr
	rounds := len(s.tally.allocs)
	st := s.stats.snapshot()
	roundPipelineMetrics(ms, tr, &s.tally, st, rounds, lat)

	probesPerRound := float64(s.tally.sent) / float64(rounds)
	run := tr.durations("scanner.run")
	ms.set("scanner.run_ns_per_probe", float64(medianDur(run))/probesPerRound, len(run))
	ms.set("scanner.self_ns_per_probe", float64(medianDur(tr.selfOf("scanner.run")))/probesPerRound, len(run))
	ms.set("simnet.busy_share_of_round", float64(st.writeNs+st.readNs)/float64(sumDur(run)), rounds)
	setMedianUS(ms, tr, "dataset.roundlog_append_us", "dataset.roundlog_append")
	ms.set("dataset.roundlog_bytes_per_round", median(s.logBytes), len(s.logBytes))
	// What Monitor.Step costs beyond the layers it calls: the untraced
	// round minus everything the stepped round attributes to a layer.
	ms.set("countrymon.step_overhead_us", us(sum.p50)-us(medianDur(steppedOpTimes(tr, rounds))), rounds)

	s.codecMetrics(ms)
}

// codecMetrics runs the packet micro-loops over what the shim captured in
// the first round.
func (s *soloStepped) codecMetrics(ms *metricSet) {
	val := scanner.NewValidator(s.in.seed^0xc0ffee, 1, soloStart)
	packetMicroLoops(ms, s.stats, val, s.targets.Len(), s.in.seed)
}

// soloStorageMetrics measures the dataset layer on the files the live run
// left behind: snapshot load, journal replay and the v4 codec.
func soloStorageMetrics(ms *metricSet, dir string, in *soloInputs) error {
	ckpt, journal := filepath.Join(dir, "solo.ckpt"), filepath.Join(dir, "solo.cmrl")
	var loads, replays []time.Duration
	var st *dataset.Store
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		if st, err = dataset.Load(ckpt); err != nil {
			return err
		}
		loads = append(loads, time.Since(t0))
		t0 = time.Now()
		if _, err := dataset.ReplayRoundLog(st, journal); err != nil {
			return err
		}
		replays = append(replays, time.Since(t0))
	}
	ms.set("dataset.load_ms", msec(medianDur(loads)), len(loads))
	ms.set("dataset.replay_ms", msec(medianDur(replays)), len(replays))
	ms.set("dataset.file_bytes", float64(fileSize(ckpt)), 1)
	return storeCodecMetrics(ms, st, 5)
}
