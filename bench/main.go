// Command bench is the countrymon benchmark: four workloads that drive the
// program the way its users do, end-to-end metrics from an untraced pass
// and per-layer metrics from a stepped, traced pass over the same inputs.
//
//	bash bench/run.sh                      every workload, both passes, one table
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                       one run; the last stdout line is the
//	                                       driver's JSON result
//	bash bench/run.sh -runs 10 -out A.json a result set for -agree
//	bash bench/run.sh -agree A.json B.json compare two result sets
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Defaults of a stand-alone run. defaultSeconds is BENCHMARK.json's
// run_seconds; the golden hashes in testdata are for exactly this pair.
const (
	defaultSeed    = 1
	defaultSeconds = 15
	// heldOutSeed is never used while the benchmark or a change is being
	// written; a claim must also hold on it (README, "Seeds").
	heldOutSeed = 7919
)

// resultSet is what -out writes and -agree reads.
type resultSet struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Seconds     float64      `json:"seconds"`
	Runs        []*runResult `json:"runs"`
}

// driverResult is the one line the driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds the output identities of the default seed at the default
// length, per workload.
type golden struct {
	Seed    uint64                       `json:"seed"`
	Seconds float64                      `json:"seconds"`
	Hashes  map[string]map[string]string `json:"hashes"`
}

// options are the command-line flags.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	out         string
	scratch     string
	runs        int
	agree       bool
	writeGolden string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: all, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("workload seed; the same seed gives the same inputs (%d is held out, see README)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length the frozen sizes are scaled to")
	// The driver passes "--trace 0" or "--trace 1" as two arguments, which a
	// Go boolean flag cannot take, so the flag has a value.
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: stepped traced pass, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the result set (with spans, for traced runs) to this file")
	flag.StringVar(&o.scratch, "scratch", "", "directory for journals, checkpoints and scenario files (default: a temp dir)")
	flag.IntVar(&o.runs, "runs", 1, "with no -workload: untraced runs per workload, on seeds seed, seed+1, ...")
	flag.BoolVar(&o.agree, "agree", false, "compare the two result sets given as arguments against the bounds")
	flag.StringVar(&o.writeGolden, "write-golden", "", "with no -workload: record the output identities of the -seed runs in this file (the only generator of testdata/golden.json)")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.agree {
		if len(args) != 2 {
			return fmt.Errorf("-agree needs two result-set files")
		}
		return runAgree(args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.runs < 1 {
		return fmt.Errorf("need -seconds > 0, -trace 0 or 1, -runs >= 1")
	}
	scratch := o.scratch
	if scratch == "" {
		dir, err := os.MkdirTemp("", "countrymon-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		scratch = dir
	} else if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	set := &resultSet{Fingerprint: takeFingerprint(scratch), Seconds: o.seconds}

	if o.workload != "" && o.workload != "all" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := w.execute(runConfig{seed: o.seed, seconds: o.seconds, trace: o.trace == 1, scratch: scratch})
		if err != nil {
			return err
		}
		var g golden
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			return fmt.Errorf("testdata/golden.json: %w", err)
		}
		g.check(res, o.seconds)
		set.Runs = append(set.Runs, res)
		if err := writeSet(o.out, set); err != nil {
			return err
		}
		printRun(os.Stderr, res, set.Fingerprint)
		return printDriverLine(res)
	}

	// Every workload, each run in a fresh child process so that peak RSS
	// and allocation counts are the workload's own: untraced on o.runs
	// consecutive seeds, then traced once.
	for _, w := range workloads {
		for i := 0; i <= o.runs; i++ {
			seed, trace := o.seed+uint64(i), 0
			if i == o.runs {
				seed, trace = o.seed, 1
			}
			res, err := runChild(w.name, seed, o.seconds, trace, scratch)
			if err != nil {
				return err
			}
			set.Runs = append(set.Runs, res)
			printRun(os.Stdout, res, set.Fingerprint)
		}
	}
	if o.writeGolden != "" {
		if err := saveGolden(o.writeGolden, goldenOf(set, o.seed)); err != nil {
			return err
		}
	}
	if err := writeSet(o.out, set); err != nil {
		return err
	}
	for _, r := range set.Runs {
		if r.Failed > 0 {
			return fmt.Errorf("%s (seed %d, trace %v): %d of %d ops failed", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
		}
	}
	return nil
}

// runChild re-executes this binary for one run and reads its result back.
func runChild(name string, seed uint64, seconds float64, trace int, scratch string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(scratch, "result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-scratch", scratch, "-out", tmp.Name())
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %d): %w", name, seed, trace, err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, err
	}
	if len(set.Runs) != 1 {
		return nil, fmt.Errorf("%s: child wrote %d runs", name, len(set.Runs))
	}
	return set.Runs[0], nil
}

func writeSet(path string, set *resultSet) error {
	if path == "" {
		return nil
	}
	data, err := json.Marshal(set)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// check holds an untraced run on the golden seed and length to the recorded
// output identities. A run the overrun guard cut short is let through: its
// hashes are of fewer ops.
func (g *golden) check(res *runResult, seconds float64) {
	if res.Trace || res.Seed != g.Seed || seconds != g.Seconds || res.Done < res.Size {
		return
	}
	for key, want := range g.Hashes[res.Workload] {
		if got := res.Hashes[key]; got != want {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("golden %s: got %.12s, want %.12s", key, got, want))
		}
	}
}

// goldenOf collects the output identities of a set's untraced runs on seed.
func goldenOf(set *resultSet, seed uint64) golden {
	g := golden{Seed: seed, Seconds: set.Seconds, Hashes: map[string]map[string]string{}}
	for _, r := range set.Runs {
		if !r.Trace && r.Seed == seed {
			g.Hashes[r.Workload] = r.Hashes
		}
	}
	return g
}

// saveGolden is the golden file's only generator (-write-golden).
func saveGolden(path string, g golden) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printRun prints every metric of a run by name with its unit and the
// number of samples behind it.
func printRun(f *os.File, r *runResult, fp fingerprint) {
	pass := "untraced"
	if r.Trace {
		pass = "traced (stepped)"
	}
	fmt.Fprintf(f, "\n== %s  seed=%d  %s  size=%d done=%d attempted=%d failed=%d\n", r.Workload, r.Seed, pass, r.Size, r.Done, r.Attempted, r.Failed)
	fmt.Fprintf(f, "   machine: nproc=%d GOMAXPROCS=%d workers=%d %s %s scratch=%s\n",
		fp.NProc, fp.GOMAXPROCS, fp.Workers, fp.Go, fp.CPU, fp.ScratchFS)
	for _, d := range defsFor(r.Trace) {
		fmt.Fprintf(f, "   %-36s %16.6g %-6s n=%d\n", d.Name, r.Metrics[d.Name], d.Unit, r.Samples[d.Name])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(f, "   FAIL %s\n", n)
	}
	if len(r.Hashes) > 0 {
		keys := make([]string, 0, len(r.Hashes))
		for k := range r.Hashes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(f, "   hash %-14s %.16s\n", k, r.Hashes[k])
		}
	}
}

// printDriverLine prints the driver's result as the last stdout line.
func printDriverLine(r *runResult) error {
	dr := driverResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]driverValue{}}
	for _, d := range defsFor(r.Trace) {
		dr.Metrics[d.Name] = driverValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	data, err := json.Marshal(dr)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}
