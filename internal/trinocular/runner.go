package trinocular

import (
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
)

// Representatives supplies a block's ever-active addresses, most reliable
// first (in reality derived from historical census data; the simulator
// derives it from the block's liveness order).
type Representatives func(block netmodel.BlockID, k int) []netmodel.Addr

// Runner executes a Trinocular campaign over the same rounds as the
// measurement store, so its outage feed is directly comparable with the
// full-block scans.
type Runner struct {
	store    *dataset.Store
	space    *netmodel.Space
	trackers []*BlockTracker
	storeIdx []int // store block index per tracker

	// Indeterminate marks eligible blocks with A < 0.3.
	Indeterminate []bool
}

// trainingMonths is the bootstrap window used to estimate E(b) and A.
const trainingMonths = 2

// calibrationSamples is how many historical instants the per-address
// availability A is estimated from. In the original system A comes from
// long-term census pings of the very addresses in E(b); sampling the probe
// function across the training window reproduces that, including the
// staleness and intermittency that make many real blocks low-availability
// (Table 4: 24% of eligible blocks have A < 0.3).
const calibrationSamples = 12

// NewRunner selects eligible blocks from the store's training window,
// calibrates each block's per-address availability by sampling probe over
// the same window, and initializes the trackers.
func NewRunner(store *dataset.Store, space *netmodel.Space, reps Representatives, probe Probe) *Runner {
	r := &Runner{store: store, space: space}
	tl := store.Timeline()
	months := tl.NumMonths()
	tm := trainingMonths
	if tm > months {
		tm = months
	}
	_, trainEnd := tl.MonthRounds(tm - 1)
	// At least calibrationSamples rounds, of those the store has.
	trainEnd = min(max(trainEnd, calibrationSamples), tl.NumRounds())
	// Eligibility and calibration are independent per block: evaluate all
	// candidates across the worker pool, then append the selected ones in
	// block order so tracker ordering never depends on scheduling.
	type candidate struct {
		tracker       *BlockTracker
		indeterminate bool
	}
	cands := par.Map(store.NumBlocks(), func(bi int) *candidate {
		blk := store.Blocks()[bi]
		ever := 0
		for m := 0; m < tm; m++ {
			if st := store.MonthStats(bi, m); st.EverActive > ever {
				ever = st.EverActive
			}
		}
		if ever < MinEverActive {
			return nil
		}
		addrs := reps(blk, MinEverActive)
		if len(addrs) == 0 {
			return nil
		}
		// Calibrate A: empirical per-probe success across the training
		// window over the representative set.
		positives, probes := 0, 0
		step := trainEnd / calibrationSamples
		if step < 1 {
			step = 1
		}
		for round := 0; round < trainEnd; round += step {
			if store.Missing(round) {
				continue
			}
			for _, a := range addrs {
				probes++
				if probe(a, round) {
					positives++
				}
			}
		}
		avail := 0.0
		if probes > 0 {
			avail = float64(positives) / float64(probes)
		}
		if !Eligible(ever, avail) {
			return nil
		}
		return &candidate{
			tracker:       NewBlockTracker(blk, addrs, avail),
			indeterminate: avail < IndeterminateBelow,
		}
	})
	for bi, c := range cands {
		if c == nil {
			continue
		}
		r.trackers = append(r.trackers, c.tracker)
		r.storeIdx = append(r.storeIdx, bi)
		r.Indeterminate = append(r.Indeterminate, c.indeterminate)
	}
	return r
}

// NumBlocks returns the number of tracked (eligible) blocks.
func (r *Runner) NumBlocks() int { return len(r.trackers) }

// Result is a completed Trinocular campaign.
type Result struct {
	// PerAS[asn][round] is the number of the AS's tracked blocks inferred
	// up — the TRIN■ signal.
	PerAS map[netmodel.ASN][]float32
	// Blocks lists the tracked blocks, in tracker order.
	Blocks []netmodel.BlockID
	// ProbesSent counts all probes (scheduled + adaptive).
	ProbesSent uint64
	// Missing mirrors the store's vantage outages.
	Missing []bool
}

// Run probes every tracked block at every (non-missing) store round.
//
// A tracker's belief evolution depends only on its own probe history and the
// probe function is a pure function of (address, round), so the campaign is
// tracker-major. Trackers are grouped by origin AS, in tracker order, and the
// groups are sharded across the worker pool: each goroutine owns one AS's
// row of PerAS and adds every state into it as soon as it is inferred, so no
// per-tracker state history is kept. The row entries are small integer
// counts, exact in float32 in any order, so the result is identical to the
// round-major sequential sweep.
func (r *Runner) Run(probe Probe) *Result {
	rounds := r.store.Timeline().NumRounds()
	res := &Result{
		PerAS:   make(map[netmodel.ASN][]float32),
		Blocks:  make([]netmodel.BlockID, len(r.trackers)),
		Missing: r.store.MissingRounds(),
	}
	// A group's goroutine is the only writer of its row and probe count.
	type asGroup struct {
		trackers []*BlockTracker
		row      []float32
		sent     uint64
	}
	var groups []asGroup
	byASN := make(map[netmodel.ASN]int)
	for t, tr := range r.trackers {
		res.Blocks[t] = tr.Block
		asn := r.space.OriginOf(tr.Block)
		g, ok := byASN[asn]
		if !ok {
			g = len(groups)
			byASN[asn] = g
			groups = append(groups, asGroup{row: make([]float32, rounds)})
			res.PerAS[asn] = groups[g].row
		}
		groups[g].trackers = append(groups[g].trackers, tr)
	}
	par.ForEach(len(groups), func(g int) {
		row := groups[g].row
		var sent uint64
		for _, tr := range groups[g].trackers {
			for round := 0; round < rounds; round++ {
				if res.Missing[round] {
					continue
				}
				state, probes := tr.Round(probe, round)
				sent += uint64(probes)
				if state == StateUp {
					row[round]++
				}
			}
		}
		groups[g].sent = sent
	})
	for _, g := range groups {
		res.ProbesSent += g.sent
	}
	return res
}

// ProbeInterval documents the baseline's native probing interval (the IODA
// deployment probes every ~10 minutes; see Table 1). The runner probes at
// the store's rounds for comparability; the finer interval is exercised in
// tests and the interval-ablation bench.
const ProbeInterval = 10 * time.Minute
