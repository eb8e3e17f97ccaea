package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/experiments"
	"countrymon/internal/ioda"
	"countrymon/internal/netmodel"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
)

// analysis_batch is the reproduction path behind every table and figure: a
// fresh experiments.Env is warmed (world → three-year store →
// classification, batch signals, Trinocular, power → IODA → every
// detection both systems report), the store is saved and loaded back, and
// the IODA-shaped API is queried for every reported AS. Every pass analyses
// a different world drawn from the seed: what a pass costs depends on the
// world (Trinocular probes adaptively), and a run that averages a few
// worlds is steadier from seed to seed than one that repeats a single
// world. One op is one /24 block carried through a whole pass: CPU time and
// allocations are summed over the passes and divided by the blocks analysed.
var analysisBatch = &workload{
	name:         "analysis_batch",
	why:          "the path behind every table and figure: batch signals, regional, trinocular, the v4 codec and par do the work and the scanner none, so a fold-side gain that costs the batch oracle shows here",
	opsPerSecond: 0.28, // passes
	sizeOf:       func(passes int) int { return max(passes, 2) },
	setups:       40,
	run:          runAnalysis,
}

// analysisWorld sizes the world: the share of the paper-scale address space
// modelled outside Kherson, on the experiments' default six-hourly
// three-year timeline. (The package test shrinks both.)
var analysisWorld = sim.Config{Scale: 0.02}

// analysisConfig is the world of one pass: the seed's own world for pass 0
// (the one the traced run steps through), a derived one for later passes.
func analysisConfig(seed uint64, pass int) sim.Config {
	cfg := analysisWorld
	cfg.Seed = seed
	if pass > 0 {
		cfg.Seed = hash2(seed, uint64(pass))
	}
	return cfg
}

// analysisPass is what one pass produced.
type analysisPass struct {
	warm    time.Duration // Env.Warm, wall
	blocks  int
	outputs string // hash of every API answer and every detection
	peakRSS float64
}

// analysisOutputs queries the IODA-shaped API for every reported AS, both
// endpoints, in process, and hashes the answers together with every per-AS
// and per-region detection of both systems, in a fixed order: the identity
// of what a pass computed. It returns the query latencies as well.
func analysisOutputs(env *experiments.Env, ck *checker) (string, []time.Duration) {
	h := sha256.New()
	srv := ioda.NewServer(env.IODA())
	reported := env.IODA().ReportedASes()
	sort.Slice(reported, func(i, j int) bool { return reported[i] < reported[j] })
	var durs []time.Duration
	w := newRespWriter()
	for _, asn := range reported {
		q := "entityType=asn&entityCode=" + strconv.FormatUint(uint64(asn), 10)
		for _, path := range []string{"/v2/outages/events", "/v2/signals/raw"} {
			t0 := time.Now()
			get(srv, w, newGET(path, q))
			durs = append(durs, time.Since(t0))
			ck.check(w.status == 200 && len(w.body) > 0, "ioda %s?%s: status %d", path, q, w.status)
			h.Write(w.body)
		}
	}
	ck.check(len(durs) > 0, "the platform reports on no AS")
	for _, asn := range env.TargetASNs() {
		hashDetection(h, env.OurAS(asn))
		hashDetection(h, env.IODAAS(asn))
	}
	for _, r := range netmodel.Regions() {
		hashDetection(h, env.OurRegion(r))
		hashDetection(h, env.IODARegion(r))
	}
	return hex.EncodeToString(h.Sum(nil)), durs
}

// hashDetection folds one detection's verdicts into h.
func hashDetection(h hash.Hash, d *signals.Detection) {
	var b [9]byte
	if d == nil {
		h.Write(b[:1])
		return
	}
	for _, o := range d.Outages {
		binary.LittleEndian.PutUint32(b[0:], uint32(o.Start))
		binary.LittleEndian.PutUint32(b[4:], uint32(o.End))
		b[8] = byte(o.Signals)
		h.Write(b[:])
	}
	h.Write([]byte{0xff})
}

// roundTrip saves the store durably and loads it back.
func roundTrip(st *dataset.Store, path string) (loaded *dataset.Store, save, load time.Duration, err error) {
	t0 := time.Now()
	if err = st.SaveSync(path); err != nil {
		return
	}
	save = time.Since(t0)
	t0 = time.Now()
	loaded, err = dataset.Load(path)
	load = time.Since(t0)
	return
}

// sameStore checks that a loaded store serializes to the bytes of the one
// that was saved, and returns that hash.
func sameStore(saved, loaded *dataset.Store, ck *checker) (string, error) {
	want, err := storeHash(saved)
	if err != nil {
		return "", err
	}
	got, err := storeHash(loaded)
	ck.check(got == want, "loaded store hash %.12s differs from the saved store %.12s", got, want)
	return want, err
}

func runAnalysis(cfg runConfig, w *workload, passes int) (*runResult, error) {
	ck := &checker{}
	ms := newMetricSet()
	res := &runResult{Hashes: map[string]string{}}
	nominal := time.Duration(cfg.seconds * float64(time.Second))
	path := filepath.Join(cfg.scratch, "analysis.cmds")

	reps := w.setups
	if cfg.trace {
		passes, reps = 1, 1
	}
	// Set-up builds the first world, the one the inputs are read off.
	world, setups, err := repeatSetup(reps, cfg.scratch,
		func(string) (*sim.Scenario, error) { return sim.Build(analysisConfig(cfg.seed, 0)) },
		func(*sim.Scenario) {})
	if err != nil {
		return nil, err
	}

	var done []analysisPass
	var env *experiments.Env
	var loaded *dataset.Store
	runtime.GC()
	mem0 := readMem()
	log, err := timedOps(passes, nominal, func(i int) error {
		// Start every pass from a collected heap, the previous world gone
		// and its memory returned: each pass then has a peak RSS of its own,
		// and the run reports the median pass (how high one pass peaks
		// depends on when the collector happens to run).
		env, loaded = nil, nil
		resetPeakRSS()
		t0 := time.Now()
		env = experiments.New(analysisConfig(cfg.seed, i))
		env.Warm()
		p := analysisPass{warm: time.Since(t0), blocks: env.Store().NumBlocks()}
		var err error
		if loaded, _, _, err = roundTrip(env.Store(), path); err != nil {
			return err
		}
		p.outputs, _ = analysisOutputs(env, ck)
		p.peakRSS = peakRSSMiB()
		done = append(done, p)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	mem := readMem().since(mem0)

	// Passes analyse different worlds, so their outputs differ; that a pass
	// repeats exactly is checked by the traced run (stepped against untraced
	// on the first world) and by the golden hash of the default seed.
	blocks := 0
	outputs := sha256.New()
	var peaks []float64
	for _, p := range done {
		blocks += p.blocks
		outputs.Write([]byte(p.outputs))
		peaks = append(peaks, p.peakRSS)
	}
	ck.check(done[0].blocks == world.Space.NumBlocks(), "pass 0 analysed %d blocks, the set-up world has %d", done[0].blocks, world.Space.NumBlocks())
	res.Hashes["detections"] = hex.EncodeToString(outputs.Sum(nil))
	res.Hashes["store"] = contentHash(env.Store())
	// The last pass's file must have loaded back as the store it was saved
	// from (hashing is the check, so it stays outside the timed passes).
	stored, err := sameStore(env.Store(), loaded, ck)
	if err != nil {
		return nil, err
	}

	// One op is one block through one pass. CPU time is the passes' total
	// over the blocks' total; the wall-clock p50 is the median pass per
	// block, the tail the slowest.
	res.Done, res.Attempted = len(done), blocks
	lat := log.lat
	res.OpUS = usList(lat)
	perBlock := make([]time.Duration, len(lat))
	var rates []float64
	for i, d := range lat {
		perBlock[i] = d / time.Duration(done[i].blocks)
		rates = append(rates, float64(done[i].blocks)/d.Seconds())
	}
	sum := opSummary{cpuPerOp: log.cpu[len(lat)-1] / time.Duration(blocks), p50: medianDur(perBlock),
		tail: quantile(perBlock, 1), perSec: median(rates), n: len(done)}
	// A failed check fails a pass, and a pass is that many ops.
	finish := func() (*runResult, error) {
		ck.failed *= done[0].blocks
		return res.finish(ms, ck, cfg.trace)
	}

	if !cfg.trace {
		endToEndMetrics(ms, setups, sum.cpuPerOp, mem, float64(blocks), len(done), median(peaks))
		return finish()
	}

	// Traced run: the first world again with the Env's stages called one
	// after another, a span around each.
	tr := newTracer()
	env = experiments.New(analysisConfig(cfg.seed, 0))
	stage := func(name string, f func()) time.Duration { return tr.do(name, -1, 0, f) }
	worldBuild := stage("sim.world_build", func() { env.Scenario() })
	generate := stage("sim.generate_store", func() { env.Store() })
	classify := stage("regional.classify", func() { env.Classifier() })
	build := stage("signals.build", func() {
		b := env.Signals()
		for _, as := range env.Scenario().Space.ASes() {
			b.AS(as.ASN)
		}
	})
	trin := stage("trinocular.run", func() { env.Trinocular() })
	pow := stage("power.report", func() { env.PowerReport() })
	iodaBuild := stage("ioda.build", func() { env.IODA(); env.TargetSet() })
	detect := stage("experiments.detect_all", func() { env.WarmDetections() })
	serial := worldBuild + generate + classify + build + trin + pow + iodaBuild + detect

	var stepOutputs string
	var save, load time.Duration
	var queryDurs []time.Duration
	spath := filepath.Join(cfg.scratch, "stepped.cmds")
	stage("dataset.round_trip", func() { loaded, save, load, err = roundTrip(env.Store(), spath) })
	if err != nil {
		return nil, err
	}
	stage("ioda.query", func() { stepOutputs, queryDurs = analysisOutputs(env, ck) })
	ck.check(stepOutputs == done[0].outputs, "stepped outputs hash %.12s differs from the untraced pass %.12s", stepOutputs, done[0].outputs)
	steppedStore, err := sameStore(env.Store(), loaded, ck)
	if err != nil {
		return nil, err
	}
	ck.check(steppedStore == stored, "stepped store hash %.12s differs from the untraced store %.12s", steppedStore, stored)

	sum.wallMetrics(ms)
	ms.set("sim.world_build_s", worldBuild.Seconds(), 1)
	ms.set("regional.classify_s", classify.Seconds(), 1)
	ms.set("signals.build_s", build.Seconds(), 1)
	ms.set("trinocular.run_s", trin.Seconds(), 1)
	ms.set("power.report_s", pow.Seconds(), 1)
	ms.set("ioda.build_s", iodaBuild.Seconds(), 1)
	ms.set("experiments.detect_all_s", detect.Seconds(), 1)
	entities := 2 * (len(env.TargetASNs()) + len(netmodel.Regions()))
	ms.set("signals.detect_us_per_entity", us(detect)/float64(entities), entities)
	ms.set("experiments.warm_serial_s", serial.Seconds(), 1)
	ms.set("experiments.parallel_speedup", serial.Seconds()/done[0].warm.Seconds(), 1)
	ms.set("experiments.analysis_s", medianDur(lat).Seconds(), len(lat))
	ms.set("ioda.query_us", us(medianDur(queryDurs)), len(queryDurs))
	ms.set("dataset.checkpoint_ms", msec(save), 1)
	ms.set("dataset.load_ms", msec(load), 1)
	ms.set("dataset.file_bytes", float64(fileSize(spath)), 1)
	if err := storeCodecMetrics(ms, env.Store(), 3); err != nil {
		return nil, err
	}
	blockStateMicroLoop(ms, env.Scenario(), 8)
	setBenchMetrics(ms, steppedOpTimes(tr, 1), lat[:1])
	commonLayerMetrics(ms)

	res.Spans = tr.spans
	return finish()
}
