package signals

import "countrymon/internal/obs"

// Vantage fusion: k-of-n corroboration of per-block darkness.
//
// A single sick vantage — stalled receive path, silent drops, a blackout
// that slipped past the error budget — looks exactly like the target going
// dark. Before a block's per-round observation is allowed to transition to
// down, the fleet supervisor gathers one verdict per vantage (the primary
// scan's per-vantage sample plus full-block corroboration re-probes) and
// FuseBlock requires coverage-weighted agreement from k distinct vantages.
// This is Trinocular-style belief maintenance: with any vantage seeing the
// block alive the observation is overridden to the best evidence; with
// insufficient dark quorum the previous belief is held.

// VantageVerdict is one vantage's evidence about a block in one round.
type VantageVerdict struct {
	// Vantage identifies the observing vantage; verdicts are deduplicated
	// per vantage (a full-block verdict supersedes a sample verdict).
	Vantage string
	// Resp is how many of the block's addresses answered this vantage.
	Resp int
	// Weight is the evidence weight in (0, 1]: the observing scan's
	// coverage, so a salvaged sliver of a scan cannot carry a full vote.
	Weight float64
	// Full marks a full-block observation (a corroboration re-probe that
	// walked all 256 addresses) as opposed to the primary scan's
	// one-shard-stratum sample.
	Full bool
}

// FuseOutcome is FuseBlock's decision for one suspect block.
type FuseOutcome uint8

const (
	// FuseAlive: at least one vantage saw the block answer — the dark
	// reading was vantage-side. Resp is restored from the best evidence.
	FuseAlive FuseOutcome = iota
	// FuseDown: a dark verdict reached the coverage-weighted quorum; the
	// block's transition to down is corroborated.
	FuseDown
	// FuseHeld: neither alive evidence nor dark quorum — the previous
	// belief is carried forward until more vantages can weigh in.
	FuseHeld
)

var fuseNames = [...]string{"alive", "down", "held"}

func (o FuseOutcome) String() string {
	if int(o) < len(fuseNames) {
		return fuseNames[o]
	}
	return "unknown"
}

// FuseBlock fuses one suspect block's verdicts into a per-round response
// count. prev is the block's last believed count (> 0, or the block would
// not be a suspect), merged the depressed count the primary scans produced,
// and quorum the configured k of k-of-n. Verdicts are deduplicated by
// vantage — a Full verdict supersedes a sample — and the effective quorum
// is min(quorum, distinct vantages), so a degraded single-vantage fleet
// still converges instead of holding forever.
func FuseBlock(prev, merged int, verdicts []VantageVerdict, quorum int) (resp int, outcome FuseOutcome) {
	if quorum < 1 {
		quorum = 1
	}
	// Deduplicate by vantage, preferring full-block evidence, in first-seen
	// order so that darkWeight adds up in the same order on every call. A
	// fleet has a handful of vantages: a linear scan of a stack array, which
	// spills to the heap only past eight.
	var buf [8]VantageVerdict
	byVantage := buf[:0]
next:
	for _, v := range verdicts {
		for i := range byVantage {
			cur := &byVantage[i]
			if cur.Vantage != v.Vantage {
				continue
			}
			if v.Full && !cur.Full || v.Full == cur.Full && v.Weight > cur.Weight {
				*cur = v
			}
			continue next
		}
		byVantage = append(byVantage, v)
	}
	alive, darkWeight := 0, 0.0
	for _, v := range byVantage {
		if v.Resp > 0 {
			if v.Full && v.Resp > alive {
				alive = v.Resp
			} else if alive == 0 {
				alive = 1 // sample evidence: alive, but the count is partial
			}
		} else {
			darkWeight += v.Weight
		}
	}
	switch {
	case alive > 0:
		// Full-block evidence restores the true count; with only sample
		// evidence keep the (depressed) merged count — it is still the best
		// whole-block estimate we have.
		resp = merged
		if alive > resp {
			resp = alive
		}
		return resp, FuseAlive
	case darkWeight >= float64(min(quorum, len(byVantage)))-1e-9 && len(byVantage) > 0:
		return 0, FuseDown
	default:
		return prev, FuseHeld
	}
}

// FusionMetrics counts fusion decisions, children of
// signals_fusion_total{outcome}. Build with NewFusionMetrics; on a nil
// registry every instrument is nil and inert.
type FusionMetrics struct {
	Alive *obs.Counter
	Down  *obs.Counter
	Held  *obs.Counter
}

// NewFusionMetrics registers (idempotently) the fusion instruments on reg.
func NewFusionMetrics(reg *obs.Registry) *FusionMetrics {
	fused := reg.CounterVec("signals_fusion_total",
		"Suspect-block fusion decisions by outcome.", "outcome")
	return &FusionMetrics{
		Alive: fused.With("alive"),
		Down:  fused.With("down"),
		Held:  fused.With("held"),
	}
}

// Observe records one fusion decision.
func (m *FusionMetrics) Observe(o FuseOutcome) {
	if m == nil {
		return
	}
	switch o {
	case FuseAlive:
		m.Alive.Inc()
	case FuseDown:
		m.Down.Inc()
	case FuseHeld:
		m.Held.Inc()
	}
}
