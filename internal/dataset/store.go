// Package dataset stores the measurement campaign's raw observations: for
// every /24 block and every probing round, the number of responsive IPs,
// BGP-routed state, and (for tracked blocks) round-trip times. The read side
// derives everything else on demand: MonthStats gives the monthly aggregates
// (the ever-active count E(b) and long-term availability A used by
// block-eligibility rules), EffectiveMissing the no-data mask and NextUndone
// the resume cursor.
//
// A store holds the rounds it recorded, not the rounds it planned: its
// responsive-count and routed columns are kept in segments of SegmentRounds
// rounds, and a segment is allocated when its first nonzero cell is
// written. A cell of a segment never written reads as zero, so a campaign a
// few days into a three-year timeline costs a few days of cells.
//
// Two ingestion paths fill a Store with identical semantics: the packet-level
// scanner (scanner.RoundData) and the fast statistical generator in
// internal/sim that makes three-year campaigns tractable on one core.
package dataset

import (
	"fmt"
	"sort"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/timeline"
)

// SegmentRounds is the number of consecutive rounds one column segment
// holds: segment k holds rounds k*SegmentRounds up to the next segment.
const SegmentRounds = 64

const (
	segShift = 6 // log2(SegmentRounds)
	segMask  = SegmentRounds - 1
)

// segment holds every block's cells for SegmentRounds consecutive rounds. A
// written segment is never copied or resized.
type segment struct {
	// resp[bi*SegmentRounds+j] is block bi's responsive count in the
	// segment's round j, capped at 255 (a /24 has at most 256 probe-able
	// addresses and real blocks never saturate; the cap is RespCap).
	resp []uint8
	// routed[bi] bit j set = block bi was covered by a BGP route during the
	// segment's round j. A decoded file may set bits past the last round.
	routed []uint64
}

// Store holds one campaign's observations. Create with NewStore, fill via
// SetRound/AddRoundData, then treat as read-only; aggregate methods are safe
// for concurrent readers afterwards.
type Store struct {
	tl     *timeline.Timeline
	blocks []netmodel.BlockID
	index  map[netmodel.BlockID]int

	// segs[k] holds rounds k*SegmentRounds onward; nil until a nonzero
	// resp or routed cell in it is written.
	segs []*segment
	// missing[r] marks vantage-point outages (no data).
	missing []bool
	// coverage[r] is the probed-target fraction of round r in 1/65535
	// units. Full by default; the packet pipeline lowers it for salvaged
	// partial rounds.
	coverage []uint16
	// done[r] marks rounds the campaign has handled (scanned or marked
	// missing) — the resume cursor for checkpoint/restart.
	done []bool

	// rtt[bi] is block bi's per-round mean RTT in milliseconds if it is
	// tracked, nil if not (to bound memory); rtt itself is nil until the
	// first TrackRTT. Unlike the segmented columns a row is planned-length:
	// only the generator tracks RTTs, and it writes every round of the
	// timeline.
	rtt [][]uint16
}

// RespCap is the saturation value of per-round responsive counts.
const RespCap = 255

// coverageFull is the fixed-point encoding of 100% round coverage.
const coverageFull = 0xFFFF

// NewStore allocates a store for the given blocks (sorted + deduplicated
// internally) over the timeline. It allocates no cells: those come a
// segment at a time as rounds are written.
func NewStore(tl *timeline.Timeline, blocks []netmodel.BlockID) *Store {
	bs := append([]netmodel.BlockID(nil), blocks...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	out := bs[:0]
	for i, b := range bs {
		if i == 0 || b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	s := &Store{
		tl:       tl,
		blocks:   out,
		index:    make(map[netmodel.BlockID]int, len(out)),
		segs:     make([]*segment, (tl.NumRounds()+segMask)/SegmentRounds),
		missing:  make([]bool, tl.NumRounds()),
		coverage: make([]uint16, tl.NumRounds()),
		done:     make([]bool, tl.NumRounds()),
	}
	for r := range s.coverage {
		s.coverage[r] = coverageFull
	}
	for i, b := range out {
		s.index[b] = i
	}
	return s
}

// writable returns segment k for a write, allocating it if it was never
// written.
func (s *Store) writable(k int) *segment {
	if sg := s.segs[k]; sg != nil {
		return sg
	}
	sg := &segment{
		resp:   make([]uint8, len(s.blocks)*SegmentRounds),
		routed: make([]uint64, len(s.blocks)),
	}
	s.segs[k] = sg
	return sg
}

// Reserve allocates the segments that hold rounds [lo, hi). Writes to a
// reserved segment allocate nothing, so SetRound and SetReserved calls for
// distinct blocks within it may run concurrently.
func (s *Store) Reserve(lo, hi int) {
	for k := lo >> segShift; k < (hi+segMask)>>segShift; k++ {
		s.writable(k)
	}
}

// NumSegments returns the number of SegmentRounds-round segments the
// timeline spans, written or not.
func (s *Store) NumSegments() int { return len(s.segs) }

// Segment returns segment k's cells (do not mutate): every block's
// responsive counts, block bi's for round k*SegmentRounds+j at
// resp[bi*SegmentRounds+j], and one routed word per block, bit j of
// routed[bi] for that round. Only the first SegmentLen(k) rounds are the
// timeline's: cells past them are zero, but a decoded file may set routed
// bits there. Both are nil for a segment never written: every cell in it is
// zero, so a walk that sums or maxes over rounds skips it.
func (s *Store) Segment(k int) (resp []uint8, routed []uint64) {
	if sg := s.segs[k]; sg != nil {
		return sg.resp, sg.routed
	}
	return nil, nil
}

// SegmentLen returns the number of the timeline's rounds segment k holds:
// SegmentRounds, or fewer in the last segment.
func (s *Store) SegmentLen(k int) int {
	return min(SegmentRounds, s.tl.NumRounds()-k<<segShift)
}

// Timeline returns the campaign timeline.
func (s *Store) Timeline() *timeline.Timeline { return s.tl }

// Blocks returns the sorted block list (do not mutate).
func (s *Store) Blocks() []netmodel.BlockID { return s.blocks }

// NumBlocks returns the number of blocks.
func (s *Store) NumBlocks() int { return len(s.blocks) }

// BlockIndex returns the dense index of b, or -1.
func (s *Store) BlockIndex(b netmodel.BlockID) int {
	if i, ok := s.index[b]; ok {
		return i
	}
	return -1
}

// SetMissing marks round r as a vantage outage. The round counts as done:
// a resumed campaign does not rescan it.
func (s *Store) SetMissing(r int) {
	s.missing[r] = true
	s.done[r] = true
}

// Missing reports whether round r has no data.
func (s *Store) Missing(r int) bool { return s.missing[r] }

// MissingRounds returns the full missing-round mask (do not mutate).
func (s *Store) MissingRounds() []bool { return s.missing }

// SetCoverage records the fraction of targets actually probed in round r
// (clamped to [0, 1]); rounds default to full coverage.
func (s *Store) SetCoverage(r int, frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	s.coverage[r] = uint16(frac*coverageFull + 0.5)
}

// Coverage returns the probed-target fraction of round r.
func (s *Store) Coverage(r int) float64 {
	return float64(s.coverage[r]) / coverageFull
}

// SetDone marks round r as handled by the campaign (resume cursor).
func (s *Store) SetDone(r int) { s.done[r] = true }

// Done reports whether round r has been handled.
func (s *Store) Done(r int) bool { return s.done[r] }

// NextUndone returns the first round not yet handled, or NumRounds when
// the campaign is complete — where a resumed campaign picks up.
func (s *Store) NextUndone() int {
	for r, d := range s.done {
		if !d {
			return r
		}
	}
	return s.tl.NumRounds()
}

// EffectiveMissing returns a fresh mask of rounds with no usable data:
// vantage outages plus partial rounds that probed less than minCoverage of
// their targets. Signals treat such rounds like missing ones, so a salvaged
// sliver of a round cannot fabricate an IPS/FBS collapse (§3.1's
// missing-round handling).
func (s *Store) EffectiveMissing(minCoverage float64) []bool {
	out := make([]bool, len(s.missing))
	threshold := coverageThreshold(minCoverage)
	for r := range out {
		out[r] = s.missing[r] || s.coverage[r] < threshold
	}
	return out
}

// EffectiveMissingAt is EffectiveMissing for a single round — the same
// thresholding, so an incremental signals fold and a batch rebuild agree on
// every round's no-data state.
func (s *Store) EffectiveMissingAt(r int, minCoverage float64) bool {
	return s.missing[r] || s.coverage[r] < coverageThreshold(minCoverage)
}

func coverageThreshold(minCoverage float64) uint16 {
	if minCoverage < 0 {
		minCoverage = 0
	}
	if minCoverage > 1 {
		minCoverage = 1
	}
	return uint16(minCoverage * coverageFull)
}

// SetRound records one block's observation for a round. resp is clamped to
// RespCap.
func (s *Store) SetRound(blockIdx, round int, resp int, routed bool) {
	if s.segs[round>>segShift] == nil {
		if resp <= 0 && !routed {
			return // an unwritten segment reads zero already
		}
		s.writable(round >> segShift)
	}
	s.SetReserved(blockIdx, round, resp, routed)
}

// SetReserved is SetRound for a round whose segment is allocated already —
// by Reserve, or by an earlier write. It has no allocation branch, so it
// inlines into a fill's per-cell loop. It panics on a segment never
// allocated.
func (s *Store) SetReserved(blockIdx, round int, resp int, routed bool) {
	sg := s.segs[round>>segShift]
	j := round & segMask
	sg.resp[blockIdx<<segShift|j] = uint8(min(max(resp, 0), RespCap))
	if routed {
		sg.routed[blockIdx] |= 1 << j
	} else {
		sg.routed[blockIdx] &^= 1 << j
	}
}

// TrackRTT enables RTT storage for a block.
func (s *Store) TrackRTT(blockIdx int) {
	if s.rtt == nil {
		s.rtt = make([][]uint16, len(s.blocks))
	}
	if s.rtt[blockIdx] == nil {
		s.rtt[blockIdx] = make([]uint16, s.tl.NumRounds())
	}
}

// rttRow returns a tracked block's RTT row, nil for a block not tracked.
func (s *Store) rttRow(blockIdx int) []uint16 {
	if uint(blockIdx) < uint(len(s.rtt)) {
		return s.rtt[blockIdx]
	}
	return nil
}

// SetRTT records a tracked block's mean RTT (milliseconds) for a round.
// It is a no-op for untracked blocks.
func (s *Store) SetRTT(blockIdx, round int, ms uint16) {
	if row := s.rttRow(blockIdx); row != nil {
		row[round] = ms
	}
}

// RTT returns a tracked block's RTT in ms at a round (0 if untracked or no
// responses).
func (s *Store) RTT(blockIdx, round int) uint16 {
	if arr := s.rttRow(blockIdx); arr != nil {
		return arr[round]
	}
	return 0
}

// RTTTracked reports whether RTTs are stored for the block.
func (s *Store) RTTTracked(blockIdx int) bool { return s.rttRow(blockIdx) != nil }

// Resp returns the responsive-IP count of block blockIdx in round r. It
// panics on a block or round out of range, written or not.
func (s *Store) Resp(blockIdx, round int) int {
	_, _ = s.blocks[blockIdx], s.missing[round] // an unwritten segment indexes neither
	if sg := s.segs[round>>segShift]; sg != nil {
		return int(sg.resp[blockIdx<<segShift|round&segMask])
	}
	return 0 // a segment never written reads zero
}

// Routed reports whether the block was BGP-routed in round r. It panics on
// a block or round out of range, written or not.
func (s *Store) Routed(blockIdx, round int) bool {
	_, _ = s.blocks[blockIdx], s.missing[round] // as in Resp
	if sg := s.segs[round>>segShift]; sg != nil {
		return sg.routed[blockIdx]>>(round&segMask)&1 == 1
	}
	return false
}

// AddRoundData ingests a packet-level scan result for the given round.
// Blocks in rd that are not in the store are ignored. Routedness is not
// carried by scans; set it separately from BGP snapshots.
func (s *Store) AddRoundData(round int, rd *scanner.RoundData) {
	k, j := round>>segShift, round&segMask
	for i := range rd.Blocks {
		br := &rd.Blocks[i]
		bi := s.BlockIndex(br.Block)
		if bi < 0 {
			continue
		}
		if resp := min(int(br.RespCount), RespCap); resp > 0 || s.segs[k] != nil {
			s.writable(k).resp[bi<<segShift|j] = uint8(resp)
		}
		if br.RTTCount > 0 {
			s.SetRTT(bi, round, uint16(br.MeanRTT().Milliseconds()))
		}
	}
}

// MonthlyBlockStats summarizes one block's activity in one month.
type MonthlyBlockStats struct {
	// EverActive is E(b): the number of distinct IPs seen responsive at
	// least once during the month.
	EverActive int
	// MeanResp is the mean per-round responsive count over measured rounds.
	MeanResp float64
	// Availability is A: MeanResp / EverActive (0 if E(b)=0) — the
	// long-term probability that an ever-active address replies.
	Availability float64
	// MeasuredRounds is the number of non-missing rounds in the month.
	MeasuredRounds int
	// RoutedRounds is how many measured rounds the block was routed.
	RoutedRounds int
}

// MonthStats computes a block's monthly aggregate. Under the store's
// nested-responsiveness model the distinct ever-active count equals the
// maximum per-round count (see internal/sim: host k responds only when the
// block's count exceeds k), which also matches how the packet-level path
// populates counts.
func (s *Store) MonthStats(blockIdx, month int) MonthlyBlockStats {
	lo, hi := s.tl.MonthRounds(month)
	var st MonthlyBlockStats
	var sum int
	for r := lo; r < hi; {
		sg, end := s.segs[r>>segShift], min(hi, (r|segMask)+1)
		if sg == nil {
			for ; r < end; r++ {
				if !s.missing[r] {
					st.MeasuredRounds++
				}
			}
			continue
		}
		row, routed := sg.resp[blockIdx<<segShift:][:SegmentRounds], sg.routed[blockIdx]
		for ; r < end; r++ {
			if s.missing[r] {
				continue
			}
			st.MeasuredRounds++
			c := int(row[r&segMask])
			sum += c
			if c > st.EverActive {
				st.EverActive = c
			}
			if routed>>(r&segMask)&1 == 1 {
				st.RoutedRounds++
			}
		}
	}
	if st.MeasuredRounds > 0 {
		st.MeanResp = float64(sum) / float64(st.MeasuredRounds)
	}
	if st.EverActive > 0 {
		st.Availability = st.MeanResp / float64(st.EverActive)
	}
	return st
}

// EligibleFBS reports full-block-scan eligibility for the month:
// E(b) ≥ minEver (the paper uses 3).
func (s *Store) EligibleFBS(blockIdx, month, minEver int) bool {
	return s.MonthStats(blockIdx, month).EverActive >= minEver
}

// EligibleTrinocular reports Trinocular eligibility for the month:
// E(b) ≥ 15 and A ≥ 0.1; indeterminate-belief blocks are those with A < 0.3.
func (s *Store) EligibleTrinocular(blockIdx, month int) (eligible, indeterminate bool) {
	st := s.MonthStats(blockIdx, month)
	eligible = st.EverActive >= 15 && st.Availability >= 0.1
	indeterminate = eligible && st.Availability < 0.3
	return eligible, indeterminate
}

// Validate does basic consistency checks, returning the first problem found.
func (s *Store) Validate() error {
	if len(s.segs) != (s.tl.NumRounds()+segMask)/SegmentRounds {
		return fmt.Errorf("dataset: segment table length mismatch")
	}
	for _, sg := range s.segs {
		if sg != nil && (len(sg.resp) != len(s.blocks)*SegmentRounds || len(sg.routed) != len(s.blocks)) {
			return fmt.Errorf("dataset: column length mismatch")
		}
	}
	for i := 1; i < len(s.blocks); i++ {
		if s.blocks[i-1] >= s.blocks[i] {
			return fmt.Errorf("dataset: blocks not sorted at %d", i)
		}
	}
	return nil
}
