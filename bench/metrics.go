package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark emits. The tables below are
// the single source of truth inside the program; BENCHMARK.json carries the
// same declarations for the driver, and bench_test.go holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the system pays: what one op costs in
// CPU time and allocations, what the process holds resident, and what
// set-up costs. Every workload emits every one of them; what an "op" is
// differs per workload and is stated in the workload's description (one
// round with its live-edge fetches, one request, one /24 block carried
// through a whole analysis pass). The time metrics are CPU time (see
// cpuTime); wall-clock latency and throughput could not hold a bound on the
// recording machine and are per-layer metrics, bench.op_*.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.08},
	{"alloc_kb_per_op", "KiB", "lower", 0.08},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced run, named
// layer.metric after the repo's modules. A layer that does no work on a
// workload reports 0 there, which is itself the prediction being checked.
var perLayer = []metricDef{
	{"scanner.probes_per_s", "1/s", "higher", 0},
	{"scanner.run_ns_per_probe", "ns", "lower", 0},
	{"scanner.self_ns_per_probe", "ns", "lower", 0},
	{"scanner.allocs_per_round", "count", "lower", 0},
	{"scanner.permute_ns_per_target", "ns", "lower", 0},
	{"scanner.probe_encode_ns", "ns", "lower", 0},
	{"scanner.reply_decode_ns", "ns", "lower", 0},
	{"scanner.valid_ratio", "ratio", "higher", 0},
	{"scanner.coverage", "ratio", "higher", 0},
	{"scanner.retries", "count", "lower", 0},

	{"icmp.encode_ns_per_pkt", "ns", "lower", 0},
	{"icmp.parse_ns_per_pkt", "ns", "lower", 0},
	{"icmp.allocs_per_pkt", "count", "lower", 0},

	{"simnet.write_ns_per_pkt", "ns", "lower", 0},
	{"simnet.read_ns_per_pkt", "ns", "lower", 0},
	{"simnet.batches_per_round", "count", "lower", 0},
	{"simnet.pkts_per_batch", "count", "higher", 0},
	{"simnet.busy_share_of_round", "ratio", "lower", 0},

	{"sim.block_state_ns", "ns", "lower", 0},
	{"sim.world_build_s", "s", "lower", 0},

	{"fleet.scan_round_ms", "ms", "lower", 0},
	{"fleet.steals_per_round", "count", "lower", 0},
	{"fleet.suspects_per_round", "count", "lower", 0},
	{"fleet.reprobe_share", "ratio", "lower", 0},
	{"fleet.degraded_rounds", "count", "lower", 0},
	{"fleet.self_outages", "count", "lower", 0},
	{"fleet.quarantines", "count", "lower", 0},

	{"signals.fuse_ns_per_block", "ns", "lower", 0},
	{"signals.fused_down_ratio", "ratio", "lower", 0},
	{"signals.fold_us_per_round", "us", "lower", 0},
	{"signals.build_s", "s", "lower", 0},
	{"signals.detect_us_per_entity", "us", "lower", 0},

	{"dataset.ingest_us_per_round", "us", "lower", 0},
	{"dataset.roundlog_append_us", "us", "lower", 0},
	{"dataset.roundlog_bytes_per_round", "B", "lower", 0},
	{"dataset.checkpoint_ms", "ms", "lower", 0},
	{"dataset.replay_ms", "ms", "lower", 0},
	{"dataset.load_ms", "ms", "lower", 0},
	{"dataset.encode_mb_per_s", "MB/s", "higher", 0},
	{"dataset.decode_mb_per_s", "MB/s", "higher", 0},
	{"dataset.file_bytes", "B", "lower", 0},

	{"serve.advance_us", "us", "lower", 0},
	{"serve.first_render_us", "us", "lower", 0},
	{"serve.first_hit_ns", "ns", "lower", 0},
	{"serve.hit_ns", "ns", "lower", 0},
	{"serve.edge_us", "us", "lower", 0},
	{"serve.render_us", "us", "lower", 0},
	{"serve.outages_us", "us", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.bytes_per_req", "B", "lower", 0},
	{"serve.sse_lag_us", "us", "lower", 0},

	{"portal.view_us", "us", "lower", 0},

	{"campaign.new_s", "s", "lower", 0},
	{"campaign.set_routed_us_per_round", "us", "lower", 0},
	{"campaign.step_overhead_us", "us", "lower", 0},

	{"countrymon.new_ms", "ms", "lower", 0},
	{"countrymon.step_overhead_us", "us", "lower", 0},
	{"countrymon.recover_ms", "ms", "lower", 0},

	{"obs.events_per_round", "count", "lower", 0},
	{"obs.bus_dropped", "count", "lower", 0},
	{"obs.metrics_scrape_us", "us", "lower", 0},

	{"regional.classify_s", "s", "lower", 0},
	{"trinocular.run_s", "s", "lower", 0},
	{"power.report_s", "s", "lower", 0},
	{"ioda.build_s", "s", "lower", 0},
	{"ioda.query_us", "us", "lower", 0},
	{"experiments.detect_all_s", "s", "lower", 0},
	{"experiments.warm_serial_s", "s", "lower", 0},
	{"experiments.parallel_speedup", "ratio", "higher", 0},
	{"experiments.analysis_s", "s", "lower", 0},

	{"par.workers", "count", "higher", 0},

	{"bench.op_p50_us", "us", "lower", 0},
	{"bench.op_tail_us", "us", "lower", 0},
	{"bench.ops_per_s", "1/s", "higher", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.attributed_share", "ratio", "higher", 0},
}

// metricSet collects one run's values by name. Names are checked against
// the declared table when the run is sealed, so a typo or a forgotten
// metric fails the run instead of silently changing the emitted set.
type metricSet struct {
	vals    map[string]float64
	samples map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]float64{}, samples: map[string]int{}}
}

// set records a value with the number of samples it summarizes.
func (m *metricSet) set(name string, v float64, samples int) {
	m.vals[name] = v
	m.samples[name] = samples
}

// seal returns the values for exactly the declared metrics: undeclared
// names are an error, declared per-layer metrics nobody set are zero-work
// on this workload, and a missing end-to-end metric is an error.
func (m *metricSet) seal(defs []metricDef, requireAll bool) (map[string]float64, error) {
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.Name] = true
	}
	for name := range m.vals {
		if !declared[name] {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
	}
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		v, ok := m.vals[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %q was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not a finite number", d.Name)
		}
		out[d.Name] = v
	}
	return out, nil
}

// --- summaries ---

// segments is how many equal parts a timed region is cut into; throughput
// and percentile metrics are the median of the per-segment values, so one
// disturbed stretch of a run cannot move the reported number.
const segments = 5

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile (nearest rank on the sorted copy).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

func medianDur(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opLog is what a closed-loop caller recorded about the ops it ran back to
// back: each op's wall latency, and the wall and process-CPU offsets from
// the start of the region at which it ended.
type opLog struct {
	lat  []time.Duration
	ends []time.Duration
	cpu  []time.Duration
}

// opSummary is the summary of a timed region. cpuPerOp is an end-to-end
// metric; p50, tail and perSec are wall-clock and reported per layer.
type opSummary struct {
	cpuPerOp  time.Duration
	p50, tail time.Duration
	perSec    float64
	n         int
}

// summarize cuts the log into parts equal segments and reports the median
// segment's CPU time per op, p50, tail quantile and throughput.
func (l *opLog) summarize(tailQ float64, parts int) opSummary {
	n := len(l.lat)
	parts = min(parts, n)
	if parts < 1 {
		return opSummary{}
	}
	var cpus, p50s, tails, rates []float64
	prevEnd, prevCPU := l.ends[0]-l.lat[0], time.Duration(0)
	for s := 0; s < parts; s++ {
		lo, hi := s*n/parts, (s+1)*n/parts
		seg := l.lat[lo:hi]
		p50s = append(p50s, float64(quantile(seg, 0.5)))
		tails = append(tails, float64(quantile(seg, tailQ)))
		cpus = append(cpus, float64(l.cpu[hi-1]-prevCPU)/float64(hi-lo))
		if wall := l.ends[hi-1] - prevEnd; wall > 0 {
			rates = append(rates, float64(hi-lo)/wall.Seconds())
		}
		prevEnd, prevCPU = l.ends[hi-1], l.cpu[hi-1]
	}
	return opSummary{
		cpuPerOp: time.Duration(median(cpus)),
		p50:      time.Duration(median(p50s)),
		tail:     time.Duration(median(tails)),
		perSec:   median(rates),
		n:        n,
	}
}

// wallMetrics reports the wall-clock view of a region as per-layer metrics.
func (s opSummary) wallMetrics(m *metricSet) {
	m.set("bench.op_p50_us", us(s.p50), s.n)
	m.set("bench.op_tail_us", us(s.tail), s.n)
	m.set("bench.ops_per_s", s.perSec, s.n)
}
