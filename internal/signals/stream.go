package signals

import (
	"fmt"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
)

// foldEntity is the streaming builder's handle on one built series: enough
// context to recompute a single round's contribution without re-walking the
// campaign. AS entities have nil eval and share; regional entities carry the
// per-block evaluation-month gates and the address-share weighting closure.
type foldEntity struct {
	es *EntitySeries
	// blocks are the contributing dense block indices, ascending — fold
	// accumulation must visit them in the same order as the batch build so
	// float32 rounding matches bit for bit.
	blocks []int
	eval   [][]bool
	share  func(bi, m int) float32
}

// NewStreamingBuilder is NewBuilderMinCoverage under the name a live campaign
// builds by: every series it builds is memoized and stays registered (a batch
// builder keeps none), and Fold advances them round by round as the campaign
// lands data, at O(blocks) per round instead of a full rebuild. On a
// partially filled store (e.g. after resume, or empty at a campaign's start)
// the initial build walks each block only through the store's written
// segments — O(blocks × recorded rounds), not the whole planned timeline —
// and Fold picks up from the store's resume cursor. Unlike a batch builder, which reads its store as complete, it
// reads the store as a live campaign's: its IPS gate averages over the
// rounds before the resume cursor, then over each round folded.
//
// The contract mirrors a campaign loop: rounds fold in nondecreasing order,
// a folded round's store cells are immutable afterwards (except the round
// being re-folded), and Fold is not called concurrently with series queries.
func NewStreamingBuilder(store *dataset.Store, space *netmodel.Space, minCoverage float64) *Builder {
	b := NewBuilderMinCoverage(store, space, minCoverage)
	b.streaming = true
	b.handled = b.nextFold
	return b
}

// NextFold returns the next round Fold expects (rounds before it are already
// folded into every warm series).
func (b *Builder) NextFold() int { return b.nextFold }

func (b *Builder) registerFold(fe *foldEntity) {
	b.foldMu.Lock()
	b.entities = append(b.entities, fe)
	b.foldMu.Unlock()
}

// Fold incorporates round's store state into every warm series. Cost is
// O(blocks this round) — independent of campaign length: the round's values
// are recomputed from scratch (so re-folding the last round, e.g. when a
// replay overlaps a checkpoint, is idempotent), eligibility maxima advance
// monotonically with FBS backfill over the current month on a threshold
// crossing, and only the affected month's IPSValidMonth is recomputed.
// Rounds already strictly behind the fold cursor are a no-op.
func (b *Builder) Fold(round int) error {
	if round < 0 || round >= b.tl.NumRounds() {
		return fmt.Errorf("signals: Fold round %d out of range [0,%d)", round, b.tl.NumRounds())
	}
	if round+1 < b.nextFold {
		return nil
	}
	defer b.metrics.FoldSeconds.ObserveSince(time.Now())

	b.missing[round] = b.store.EffectiveMissingAt(round, b.minCoverage)
	b.handled = max(b.handled, round+1)
	month := b.tl.MonthOfRound(round)

	// Advance the per-block ever-active maxima and collect threshold
	// crossings. Eligibility only ever flips false→true as rounds land, so a
	// crossing means FBS credit for the month's earlier rounds (backfill);
	// the maxima skip only true vantage outages, matching MonthStats.
	var newly []int
	if !b.store.Missing(round) {
		for bi := 0; bi < b.store.NumBlocks(); bi++ {
			c := uint8(b.store.Resp(bi, round))
			i := bi*b.months + month
			if c > b.everMax[i] {
				b.everMax[i] = c
				if !b.elig[i] && c >= MinEverActive {
					b.elig[i] = true
					newly = append(newly, bi)
				}
			}
		}
	}

	b.foldMu.Lock()
	entities := b.entities
	b.foldMu.Unlock()
	for _, fe := range entities {
		b.foldEntityRound(fe, round, month, newly)
	}
	if round+1 > b.nextFold {
		b.nextFold = round + 1
	}
	return nil
}

func (b *Builder) foldEntityRound(fe *foldEntity, round, month int, newly []int) {
	es := fe.es
	if round >= es.BGP.Len() {
		GrowColumns(b.tl, month, &es.BGP, &es.FBS, &es.IPS)
	}
	if len(newly) > 0 {
		b.backfillFBS(fe, round, month, newly)
	}
	lo, _ := b.tl.MonthRounds(month)
	j := round - lo
	bgpSeg, fbsSeg, ipsSeg := es.BGP.segs[month], es.FBS.segs[month], es.IPS.segs[month]
	if es.Missing[round] {
		// The batch build skips missing rounds, leaving zeros — match it
		// even if an earlier fold of this round saw it non-missing.
		bgpSeg[j], fbsSeg[j], ipsSeg[j] = 0, 0, 0
		b.fillIPSValidityMonth(es, month)
		return
	}
	var bgp, fbs, ips float32
	for i, bi := range fe.blocks {
		if fe.eval != nil && !fe.eval[i][month] {
			continue
		}
		resp := b.store.Resp(bi, round)
		c := float32(resp)
		if fe.share != nil {
			c *= fe.share(bi, month)
		}
		ips += c
		if b.store.Routed(bi, round) {
			bgp++
		}
		if b.elig[bi*b.months+month] && resp > 0 {
			fbs++
		}
	}
	bgpSeg[j], fbsSeg[j], ipsSeg[j] = bgp, fbs, ips
	b.fillIPSValidityMonth(es, month)
}

// backfillFBS credits the month's earlier rounds for blocks that just became
// FBS-eligible: in the batch build those rounds would have counted the block
// all along. FBS is an exact integer count, so incrementing in place is
// bit-identical to a rebuild. The round being folded itself is excluded —
// foldEntityRound recomputes it wholesale.
func (b *Builder) backfillFBS(fe *foldEntity, round, month int, newly []int) {
	lo, _ := b.tl.MonthRounds(month)
	fbs := fe.es.FBS.segs[month]
	// Merge-intersect the ascending newly-eligible and entity block lists.
	j := 0
	for i, bi := range fe.blocks {
		for j < len(newly) && newly[j] < bi {
			j++
		}
		if j == len(newly) {
			return
		}
		if newly[j] != bi {
			continue
		}
		if fe.eval != nil && !fe.eval[i][month] {
			continue
		}
		for r := lo; r < round; r++ {
			if !fe.es.Missing[r] && b.store.Resp(bi, r) > 0 {
				fbs[r-lo]++
			}
		}
	}
}
