// Package trinocular implements the Trinocular outage-detection baseline
// (Quan, Heidemann & Pradkin, SIGCOMM 2013) the paper compares against: per
// /24 block, a Bayesian belief B(U) that the block is up, updated from
// single-address probes of the block's ever-active set E(b), with adaptive
// short-term probing (up to 15 addresses) whenever the belief is uncertain.
//
// Block eligibility follows the baseline's rules: E(b) ≥ 15 and long-term
// availability A ≥ 0.1; blocks with A < 0.3 tend to indeterminate belief
// (Table 4). The per-AS "active blocks" series this package produces is the
// TRIN■ signal used in the IODA comparisons (§5.4, Figs 15-17, 25-27).
package trinocular

import "countrymon/internal/netmodel"

// Probe asks ground truth whether one address answers in one round of the
// runner's store timeline.
type Probe func(addr netmodel.Addr, round int) bool

// Belief thresholds from the baseline.
const (
	BeliefUp   = 0.9
	BeliefDown = 0.1
	beliefMax  = 0.99
	beliefMin  = 0.01
	// maxAdaptiveProbes bounds a round's adaptive probing burst.
	maxAdaptiveProbes = 15
	// beliefRetention decays belief toward 0.5 between rounds, modelling
	// the baseline's state-transition probability: evidence ages, blocks
	// change state. This is what makes single-probe inference of sparse
	// blocks unstable (Fig 27) where a 256-probe census is not.
	beliefRetention = 0.85
)

// Eligibility thresholds.
const (
	MinEverActive      = 15
	MinAvailability    = 0.1
	IndeterminateBelow = 0.3
)

// State is a block's inferred state.
type State uint8

// Block states.
const (
	StateUnknown State = iota
	StateUp
	StateDown
	StateUncertain
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	case StateUncertain:
		return "uncertain"
	}
	return "unknown"
}

// BlockTracker tracks one /24 block's belief.
type BlockTracker struct {
	Block netmodel.BlockID
	// EverActive is E(b): the representative addresses, most reliable
	// first; at most 15 are probed.
	EverActive []netmodel.Addr
	// A is the long-term per-address availability.
	A float64

	belief float64
	cursor int
	state  State
}

// NewBlockTracker initializes a tracker with prior belief 0.5.
func NewBlockTracker(block netmodel.BlockID, everActive []netmodel.Addr, availability float64) *BlockTracker {
	if len(everActive) > MinEverActive {
		everActive = everActive[:MinEverActive]
	}
	a := availability
	if a < 0.02 {
		a = 0.02
	}
	if a > 0.98 {
		a = 0.98
	}
	return &BlockTracker{Block: block, EverActive: everActive, A: a, belief: 0.5, state: StateUnknown}
}

// Eligible reports the baseline's block-eligibility rule.
func Eligible(everActive int, availability float64) bool {
	return everActive >= MinEverActive && availability >= MinAvailability
}

// update applies Bayes' rule for one probe outcome.
func (t *BlockTracker) update(positive bool) {
	var pUp, pDown float64
	if positive {
		pUp, pDown = t.A, 0.001 // replies from down blocks are spoofs/noise
	} else {
		pUp, pDown = 1-t.A, 0.999
	}
	num := t.belief * pUp
	den := num + (1-t.belief)*pDown
	if den <= 0 {
		return
	}
	t.belief = num / den
	if t.belief > beliefMax {
		t.belief = beliefMax
	}
	if t.belief < beliefMin {
		t.belief = beliefMin
	}
}

// Round performs one probing round: the scheduled single probe, then
// adaptive probing while the belief is uncertain. It returns the inferred
// state and the number of probes sent.
func (t *BlockTracker) Round(probe Probe, round int) (State, int) {
	if len(t.EverActive) == 0 {
		t.state = StateUnknown
		return t.state, 0
	}
	t.belief = 0.5 + (t.belief-0.5)*beliefRetention
	probes := 0
	for {
		addr := t.EverActive[t.cursor%len(t.EverActive)]
		t.cursor++
		positive := probe(addr, round)
		t.update(positive)
		probes++
		if positive {
			// A single response is conclusive evidence of life.
			t.belief = beliefMax
			break
		}
		if t.belief <= BeliefDown || t.belief >= BeliefUp {
			break
		}
		if probes >= maxAdaptiveProbes || probes >= len(t.EverActive) {
			break
		}
	}
	switch {
	case t.belief >= BeliefUp:
		t.state = StateUp
	case t.belief <= BeliefDown:
		t.state = StateDown
	default:
		t.state = StateUncertain
	}
	return t.state, probes
}
