package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/sim"
	"countrymon/internal/timeline"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables holds BENCHMARK.json to the program's own
// declarations: same workloads, same metrics, units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q differs from the program's %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: manifest %+v, program %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) || !unitRE.MatchString(want[i].Unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, want[i])
			}
			if seen[want[i].Name] {
				t.Errorf("%s: %s declared twice", kind, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// tinySizes shrinks every workload's inputs so the whole suite runs in a
// few seconds; the op counts below are the tiny frozen sizes.
func tinySizes(t *testing.T) {
	oldPrefix, oldShape, oldSeal, oldWorld := soloPrefix, chaosShape, serveSealEvery, analysisWorld
	t.Cleanup(func() { soloPrefix, chaosShape, serveSealEvery, analysisWorld = oldPrefix, oldShape, oldSeal, oldWorld })
	soloPrefix = netmodel.MustParsePrefix("10.16.0.0/20")
	chaosShape = []countryShape{{"UA", "Ukraine", 3, 2}, {"RO", "Romania", 3, 2}}
	serveSealEvery = 1000
	analysisWorld = sim.Config{Scale: 0.005, Interval: 24 * time.Hour, End: timeline.DefaultStart.AddDate(1, 0, 0)}
}

var tinyOps = map[string]int{
	"solo_durable":   23,
	"campaign_chaos": 40,
	"serve_mixed":    4000,
	"analysis_batch": 1,
}

// The zero-work predictions the tiny traced runs are held to: the fleet and
// sim do nothing on solo_durable, the scanner nothing on the two workloads
// that never scan, and each workload's own layers did work.
var (
	predictedZero = map[string][]string{
		"solo_durable":   {"fleet.scan_round_ms", "fleet.suspects_per_round", "sim.block_state_ns", "campaign.new_s"},
		"campaign_chaos": {"dataset.roundlog_append_us", "countrymon.recover_ms", "serve.hit_ns"},
		"serve_mixed":    {"scanner.run_ns_per_probe", "scanner.probes_per_s", "dataset.roundlog_append_us"},
		"analysis_batch": {"scanner.run_ns_per_probe", "scanner.probes_per_s", "serve.hit_ns"},
	}
	predictedWork = map[string][]string{
		"solo_durable":   {"scanner.run_ns_per_probe", "dataset.roundlog_append_us", "countrymon.recover_ms"},
		"campaign_chaos": {"fleet.scan_round_ms", "fleet.suspects_per_round", "sim.block_state_ns", "obs.events_per_round"},
		"serve_mixed":    {"serve.hit_ns", "serve.render_us", "serve.sse_lag_us", "portal.view_us"},
		"analysis_batch": {"trinocular.run_s", "signals.build_s", "dataset.load_ms"},
	}
)

// TestWorkloadsEmitDeclaredMetrics runs every workload, untraced and
// traced, at its tiny size and checks that nothing fails, that the set of
// emitted metrics is exactly the declared one, and that the layers separate
// as predicted.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	tinySizes(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t0 := time.Now()
			tiny := *w
			tiny.setups = 2
			cfg := runConfig{seed: 3, seconds: 1, trace: trace, scratch: t.TempDir()}
			res, err := tiny.run(cfg, &tiny, tinyOps[w.name])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, res.Failed, res.Attempted, res.Notes)
			}
			defs := defsFor(trace)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, d.Name)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, v)
				}
			}
			if trace {
				if len(res.Spans) == 0 {
					t.Errorf("%s: traced run kept no spans", w.name)
				}
				for _, m := range predictedZero[w.name] {
					if res.Metrics[m] != 0 {
						t.Errorf("%s: %s = %v, predicted zero work", w.name, m, res.Metrics[m])
					}
				}
				for _, m := range predictedWork[w.name] {
					if res.Metrics[m] <= 0 {
						t.Errorf("%s: %s = %v, predicted work", w.name, m, res.Metrics[m])
					}
				}
			}
			t.Logf("%s trace=%v: %v", w.name, trace, time.Since(t0).Round(time.Millisecond))
		}
	}
}

// TestServeMixedAnyCoreCount runs serve_mixed with reader counts that do not
// divide the request count: every request must still be issued and every
// seal made, on any machine.
func TestServeMixedAnyCoreCount(t *testing.T) {
	tinySizes(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{4, 8} { // 3 and 7 readers
		runtime.GOMAXPROCS(procs)
		tiny := *serveMixed
		tiny.setups = 1
		n := tinyOps[tiny.name]
		res, err := tiny.run(runConfig{seed: 3, seconds: 1, scratch: t.TempDir()}, &tiny, n)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if res.Failed != 0 || res.Attempted != n || res.Done != n {
			t.Errorf("GOMAXPROCS=%d: %d requests wanted, %d done, %d failed: %v", procs, n, res.Done, res.Failed, res.Notes)
		}
	}
}

// TestGolden holds the committed golden file to its shape and takes the
// generator and the check through a round trip: identities recorded from a
// run pass against that run, a changed output fails, and a run the overrun
// guard cut short is not compared.
func TestGolden(t *testing.T) {
	var committed golden
	if err := json.Unmarshal(goldenJSON, &committed); err != nil {
		t.Fatal(err)
	}
	if committed.Seed != defaultSeed || committed.Seconds != defaultSeconds {
		t.Errorf("golden file is for seed %d at %v s, defaults are %d at %d s", committed.Seed, committed.Seconds, defaultSeed, defaultSeconds)
	}
	for _, w := range workloads {
		if len(committed.Hashes[w.name]) == 0 {
			t.Errorf("golden file has no hashes for %s", w.name)
		}
	}

	tinySizes(t)
	tiny := *soloDurable
	tiny.setups = 1
	res, err := tiny.run(runConfig{seed: 3, seconds: 1, scratch: t.TempDir()}, &tiny, tinyOps[tiny.name])
	if err != nil {
		t.Fatal(err)
	}
	res.Workload, res.Seed, res.Size = tiny.name, 3, tinyOps[tiny.name]
	path := filepath.Join(t.TempDir(), "testdata", "golden.json")
	if err := saveGolden(path, goldenOf(&resultSet{Seconds: 1, Runs: []*runResult{res}}, 3)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if g.check(res, 1); res.Failed != 0 {
		t.Errorf("a run fails its own golden hashes: %v", res.Notes)
	}
	res.Hashes["store"] = "changed"
	res.Done--
	if g.check(res, 1); res.Failed != 0 {
		t.Errorf("a run that was cut short was compared: %v", res.Notes)
	}
	res.Done++
	if g.check(res, 1); res.Failed != 1 {
		t.Errorf("a changed store hash went unnoticed")
	}
}

// TestAgree: two equal sets agree; allocations 3 % up on every seed are
// within the manifest bound but outside the same-seed one; a set whose
// spread exceeds a bound is refused whatever the metric.
func TestAgree(t *testing.T) {
	write := func(name string, scale func(seed uint64, metric string) float64) string {
		set := resultSet{Seconds: 1}
		for _, w := range workloads {
			for seed := uint64(100); seed < 110; seed++ {
				r := &runResult{Workload: w.name, Seed: seed, Attempted: 1, Metrics: map[string]float64{}}
				for _, d := range endToEnd {
					r.Metrics[d.Name] = (100 + float64(seed%3)) * scale(seed, d.Name)
				}
				set.Runs = append(set.Runs, r)
			}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeSet(path, &set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := func(uint64, string) float64 { return 1 }
	a := write("a.json", same)
	if err := runAgree(a, write("b.json", same)); err != nil {
		t.Errorf("equal sets: %v", err)
	}
	moreAllocs := func(_ uint64, metric string) float64 {
		if metric == "allocs_per_op" {
			return 1.03
		}
		return 1
	}
	if err := runAgree(a, write("b.json", moreAllocs)); err == nil {
		t.Error("3 % more allocations on every seed went unnoticed")
	}
	noisySetup := func(seed uint64, metric string) float64 {
		if metric == "setup_s" && seed%2 == 0 {
			return 1.6
		}
		return 1
	}
	if err := runAgree(write("a.json", noisySetup), write("b.json", noisySetup)); err == nil {
		t.Error("a setup_s spread beyond its bound went unnoticed")
	}
}

func TestSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(vs); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: union is [10, 50)
		{Name: "agg", Start: 0, End: 15, Parent: 0, Calls: 5},
	}}
	if got := tr.self(0); got != 100-40-15 {
		t.Errorf("self = %d, want 45", got)
	}
}
