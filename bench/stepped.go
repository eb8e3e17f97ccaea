package main

import (
	"os"
	"path/filepath"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/scanner"
)

// What the two stepped round pipelines (solo_durable's and
// campaign_chaos's) share: the per-scan tally, the checkpoint write, and
// the per-layer metrics that read the same spans on both.

// scanTally accumulates what the stepped scans reported.
type scanTally struct {
	sent, valid, retries uint64
	probed, due          int
	allocs               []float64 // heap objects allocated per scan
}

// add records one scan's result (nil on a fleet self-outage) and the heap
// objects allocated while it ran.
func (t *scanTally) add(rd *scanner.RoundData, allocs uint64) {
	t.allocs = append(t.allocs, float64(allocs))
	if rd == nil {
		return
	}
	t.valid += rd.Stats.Valid
	t.retries += rd.Stats.Retries
	t.probed += rd.Probed
	t.due += rd.ShardTargets
}

// checkpoint is Monitor.Checkpoint's durable write: temp file, fsync,
// rename, directory fsync.
func checkpoint(st *dataset.Store, path string) error {
	tmp := path + ".tmp"
	if err := st.SaveSync(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync() // some filesystems refuse directory fsync; the rename is still atomic
	return nil
}

// roundPipelineMetrics sets the per-layer metrics both round workloads read
// off the same spans and counters: the scan tally, the transport shim, and
// the ingest → fold → seal → checkpoint → fetch spans. rounds is how many
// ops were stepped, lat the untraced ops' latencies over the same rounds.
func roundPipelineMetrics(ms *metricSet, tr *tracer, t *scanTally, st shimSnapshot, rounds int, lat []time.Duration) {
	scans := len(t.allocs)
	ms.set("scanner.allocs_per_round", median(t.allocs), scans)
	ms.set("scanner.valid_ratio", float64(t.valid)/float64(max(t.sent, 1)), scans)
	ms.set("scanner.coverage", float64(t.probed)/float64(max(t.due, 1)), scans)
	ms.set("scanner.retries", float64(t.retries), scans)

	ms.set("simnet.write_ns_per_pkt", float64(st.writeNs)/float64(max(st.writePkts, 1)), int(st.writeCalls))
	ms.set("simnet.read_ns_per_pkt", float64(st.readNs)/float64(max(st.readPkts, 1)), int(st.readCalls))
	ms.set("simnet.batches_per_round", float64(st.writeCalls+st.readCalls)/float64(rounds), rounds)
	ms.set("simnet.pkts_per_batch", float64(st.writePkts)/float64(max(st.writeCalls, 1)), int(st.writeCalls))

	setMedianUS(ms, tr, "dataset.ingest_us_per_round", "dataset.ingest")
	ck := tr.durations("dataset.checkpoint")
	ms.set("dataset.checkpoint_ms", msec(medianDur(ck)), len(ck))
	setMedianUS(ms, tr, "signals.fold_us_per_round", "signals.fold")
	setMedianUS(ms, tr, "serve.advance_us", "serve.advance")
	setMedianUS(ms, tr, "serve.first_render_us", "serve.first_render")
	hit := tr.durations("serve.first_hit")
	ms.set("serve.first_hit_ns", float64(medianDur(hit)), len(hit))

	setBenchMetrics(ms, steppedOpTimes(tr, rounds), lat)
}

// steppedOpTimes is the per-op sum of root spans, in op order.
func steppedOpTimes(tr *tracer, ops int) []time.Duration {
	byOp := tr.rootSumByOp()
	out := make([]time.Duration, 0, ops)
	for op := 0; op < ops; op++ {
		out = append(out, byOp[op])
	}
	return out
}

func sumDur(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// setBenchMetrics reports how much of the untraced op the stepped spans
// explain and what stepping costs.
func setBenchMetrics(ms *metricSet, stepped, untraced []time.Duration) {
	ms.set("bench.attributed_share", float64(sumDur(stepped))/float64(sumDur(untraced)), len(stepped))
	ms.set("bench.trace_overhead_ratio", float64(medianDur(stepped))/float64(medianDur(untraced)), len(stepped))
}

func setMedianUS(ms *metricSet, tr *tracer, metric, spanName string) {
	ds := tr.durations(spanName)
	ms.set(metric, us(medianDur(ds)), len(ds))
}
