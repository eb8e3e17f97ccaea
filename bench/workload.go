package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is what one workload run is given: the driver's arguments plus
// a scratch directory the run owns.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	scratch string
}

// runResult is what a run hands back. With trace off Metrics holds every
// end-to-end metric; with trace on, every per-layer metric and the spans.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Size      int                `json:"size"` // the frozen op count for the run's length
	Done      int                `json:"done"` // ops completed, in the unit of Size; below it only if the overrun guard cut the run short
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Hashes    map[string]string  `json:"hashes,omitempty"`
	// OpUS is every op's latency in execution order, for the workloads whose
	// ops are few enough to list (rounds, passes).
	OpUS  []float64 `json:"op_us,omitempty"`
	Spans []span    `json:"spans,omitempty"`
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// opsPerSecond is the frozen size: how many ops one second of --seconds
	// buys. It was set so that the timed region takes about --seconds on the
	// recording machine, and is fixed from then on: work is counted, not
	// clocked, so counts repeat exactly and the request mix does not change
	// when the code gets faster.
	opsPerSecond float64
	// sizeOf turns the raw op budget into a size the workload accepts.
	sizeOf func(ops int) int
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	run    func(cfg runConfig, w *workload, ops int) (*runResult, error)
}

var workloads = []*workload{
	soloDurable,
	campaignChaos,
	serveMixed,
	analysisBatch,
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// size is the frozen op count for a run of the given length.
func (w *workload) size(seconds float64) int {
	return w.sizeOf(int(w.opsPerSecond*seconds + 0.5))
}

// execute runs the workload once in this process.
func (w *workload) execute(cfg runConfig) (*runResult, error) {
	dir, err := os.MkdirTemp(cfg.scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.scratch = dir
	size := w.size(cfg.seconds)
	res, err := w.run(cfg, w, size)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Workload, res.Seed, res.Trace, res.Size = w.name, cfg.seed, cfg.trace, size
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	return res, nil
}

// finish seals the run's metrics and correctness findings into res: every
// end-to-end metric of an untraced run, every per-layer metric of a traced
// one.
func (res *runResult) finish(ms *metricSet, ck *checker, trace bool) (*runResult, error) {
	res.Failed, res.Notes, res.Samples = ck.failed, ck.notes, ms.samples
	var err error
	res.Metrics, err = ms.seal(defsFor(trace), !trace)
	return res, err
}

// checker collects correctness failures. Each failed check costs one op in
// fail terms, so a run with any wrong output reports failed > 0.
type checker struct {
	failed int
	notes  []string
}

func (c *checker) failf(format string, a ...any) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, a...))
	}
}

func (c *checker) check(ok bool, format string, a ...any) {
	if !ok {
		c.failf(format, a...)
	}
}

// timedOps runs op n times (one closed-loop caller, no think time) and logs
// each op's wall and CPU time. after, when non-nil, runs after every op
// outside the timing: that is where the benchmark checks the op's outputs
// and, in a traced run, steps the same round through its own pipeline, so
// that both passes see the same phases of a noisy machine. The offsets in
// the log are sums of op times, as if the ops had run back to back. The
// loop stops early, at an op boundary, only if the ops have already taken
// four times the nominal length: on a much slower machine the run then
// reports fewer attempted ops instead of overrunning the driver's clock.
func timedOps(n int, nominal time.Duration, op func(i int) error, after func(i int) error) (*opLog, error) {
	log := &opLog{lat: make([]time.Duration, 0, n), ends: make([]time.Duration, 0, n), cpu: make([]time.Duration, 0, n)}
	var total timing
	for i := 0; i < n; i++ {
		t0 := now()
		if err := op(i); err != nil {
			return log, err
		}
		d := now().since(t0)
		total.wall, total.cpu = total.wall+d.wall, total.cpu+d.cpu
		log.lat = append(log.lat, d.wall)
		log.ends = append(log.ends, total.wall)
		log.cpu = append(log.cpu, total.cpu)
		if after != nil {
			if err := after(i); err != nil {
				return log, err
			}
		}
		if nominal > 0 && total.wall > 4*nominal {
			break
		}
	}
	return log, nil
}

// repeatSetup runs setup reps times and returns the product of the last
// one with every duration. Earlier products are torn down and
// collected before the next attempt, so peak RSS stays that of one set-up.
func repeatSetup[T any](reps int, dir string, setup func(dir string) (T, error), teardown func(T)) (T, []timing, error) {
	var zero, last T
	var durs []timing
	for i := 0; i < reps; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return zero, nil, err
		}
		t0 := now()
		v, err := setup(sub)
		if err != nil {
			return zero, nil, err
		}
		durs = append(durs, now().since(t0))
		if i < reps-1 {
			teardown(v)
			os.RemoveAll(sub)
			runtime.GC()
			continue
		}
		last = v
	}
	return last, durs, nil
}

// endToEndMetrics fills the end-to-end metrics from a timed region of ops
// ops whose CPU time per op is cpuPerOp and whose process peaked at peakRSS.
func endToEndMetrics(m *metricSet, setups []timing, cpuPerOp time.Duration, mem memDelta, ops float64, samples int, peakRSS float64) {
	var ss []float64
	for _, d := range setups {
		ss = append(ss, d.cpu.Seconds())
	}
	m.set("setup_s", median(ss), len(ss))
	m.set("cpu_us_per_op", us(cpuPerOp), samples)
	m.set("allocs_per_op", float64(mem.mallocs)/ops, int(ops))
	m.set("alloc_kb_per_op", float64(mem.bytes)/1024/ops, int(ops))
	m.set("peak_rss_mb", peakRSS, 1)
}

// wallOf lists the wall-clock part of timings.
func wallOf(ts []timing) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.wall
	}
	return out
}

// nsPerCall times n back-to-back calls of f.
func nsPerCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func usList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
