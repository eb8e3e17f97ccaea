// Package dataset stores the measurement campaign's raw observations: for
// every /24 block and every probing round, the number of responsive IPs,
// BGP-routed state, and (for tracked blocks) round-trip times. The read side
// derives everything else on demand: MonthStats gives the monthly aggregates
// (the ever-active count E(b) and long-term availability A used by
// block-eligibility rules), EffectiveMissing the no-data mask, NextUndone the
// resume cursor, and Extent the bound past which a block's column is all
// zero.
//
// Two ingestion paths fill a Store with identical semantics: the packet-level
// scanner (scanner.RoundData) and the fast statistical generator in
// internal/sim that makes three-year campaigns tractable on one core.
package dataset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/timeline"
)

// Store holds one campaign's observations. Create with NewStore, fill via
// SetRound/AddRoundData, then treat as read-only; aggregate methods are safe
// for concurrent readers afterwards.
type Store struct {
	tl     *timeline.Timeline
	blocks []netmodel.BlockID
	index  map[netmodel.BlockID]int

	// resp[b][r] is the number of responsive IPs of block b in round r,
	// capped at 255 (a /24 has at most 256 probe-able addresses and real
	// blocks never saturate; the cap is recorded by RespCap).
	resp [][]uint8
	// routed is a per-block bitset over rounds: bit r set = the block was
	// covered by a BGP route during round r.
	routed [][]uint64
	// missing[r] marks vantage-point outages (no data).
	missing []bool
	// coverage[r] is the probed-target fraction of round r in 1/65535
	// units. Full by default; the packet pipeline lowers it for salvaged
	// partial rounds.
	coverage []uint16
	// done[r] marks rounds the campaign has handled (scanned or marked
	// missing) — the resume cursor for checkpoint/restart.
	done []bool

	// rtt[b] is per-round mean RTT in milliseconds for tracked blocks
	// (nil for untracked blocks to bound memory).
	rtt map[int][]uint16
}

// RespCap is the saturation value of per-round responsive counts.
const RespCap = 255

// coverageFull is the fixed-point encoding of 100% round coverage.
const coverageFull = 0xFFFF

// NewStore allocates a store for the given blocks (sorted + deduplicated
// internally) over the timeline.
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
		resp:     make([][]uint8, len(out)),
		routed:   make([][]uint64, len(out)),
		missing:  make([]bool, tl.NumRounds()),
		coverage: make([]uint16, tl.NumRounds()),
		done:     make([]bool, tl.NumRounds()),
		rtt:      make(map[int][]uint16),
	}
	for r := range s.coverage {
		s.coverage[r] = coverageFull
	}
	words := (tl.NumRounds() + 63) / 64
	for i, b := range out {
		s.index[b] = i
		s.resp[i] = make([]uint8, tl.NumRounds())
		s.routed[i] = make([]uint64, words)
	}
	return s
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
	if resp > RespCap {
		resp = RespCap
	}
	if resp < 0 {
		resp = 0
	}
	s.resp[blockIdx][round] = uint8(resp)
	if routed {
		s.routed[blockIdx][round/64] |= 1 << (round % 64)
	} else {
		s.routed[blockIdx][round/64] &^= 1 << (round % 64)
	}
}

// TrackRTT enables RTT storage for a block.
func (s *Store) TrackRTT(blockIdx int) {
	if _, ok := s.rtt[blockIdx]; !ok {
		s.rtt[blockIdx] = make([]uint16, s.tl.NumRounds())
	}
}

// SetRTT records a tracked block's mean RTT (milliseconds) for a round.
// It is a no-op for untracked blocks.
func (s *Store) SetRTT(blockIdx, round int, ms uint16) {
	if arr, ok := s.rtt[blockIdx]; ok {
		arr[round] = ms
	}
}

// RTT returns a tracked block's RTT in ms at a round (0 if untracked or no
// responses).
func (s *Store) RTT(blockIdx, round int) uint16 {
	if arr, ok := s.rtt[blockIdx]; ok {
		return arr[round]
	}
	return 0
}

// RTTTracked reports whether RTTs are stored for the block.
func (s *Store) RTTTracked(blockIdx int) bool {
	_, ok := s.rtt[blockIdx]
	return ok
}

// Resp returns the responsive-IP count of block blockIdx in round r.
func (s *Store) Resp(blockIdx, round int) int { return int(s.resp[blockIdx][round]) }

// RespSeries returns the block's full per-round series (do not mutate).
func (s *Store) RespSeries(blockIdx int) []uint8 { return s.resp[blockIdx] }

// Routed reports whether the block was BGP-routed in round r.
func (s *Store) Routed(blockIdx, round int) bool {
	return s.routed[blockIdx][round/64]>>(round%64)&1 == 1
}

// RoutedWords returns the block's routed bitset, bit r%64 of word r/64 for
// round r (do not mutate). Bits past the last round may be set.
func (s *Store) RoutedWords(blockIdx int) []uint64 { return s.routed[blockIdx] }

// Extent returns one past the last round in which the block has a nonzero
// responsive count or a routed bit (0 for an empty column): every cell at or
// past it is zero, so a walk that sums or maxes a block's rounds can stop
// there. It is a stateless backward scan — eight count bytes per load, then
// the routed words — so no write path has a high-water mark to maintain.
func (s *Store) Extent(blockIdx int) int {
	resp := s.resp[blockIdx]
	n := byteExtent(resp)
	words := s.routed[blockIdx]
	for w := len(words) - 1; w >= 0 && w*64+64 > n; w-- {
		if words[w] != 0 {
			// Clamped: a decoded file's padding bits past the last round
			// must not push a walk off the end of the column.
			return max(n, min(w*64+64-bits.LeadingZeros64(words[w]), len(resp)))
		}
	}
	return n
}

// byteExtent returns one past the last nonzero byte of b (0 when all are
// zero), scanning backward eight bytes per load once aligned.
func byteExtent(b []byte) int {
	n := len(b)
	for n%8 != 0 && b[n-1] == 0 {
		n--
	}
	if n%8 == 0 {
		for n > 0 && binary.LittleEndian.Uint64(b[n-8:n]) == 0 {
			n -= 8
		}
		for n > 0 && b[n-1] == 0 {
			n--
		}
	}
	return n
}

// AddRoundData ingests a packet-level scan result for the given round.
// Blocks in rd that are not in the store are ignored. Routedness is not
// carried by scans; set it separately from BGP snapshots.
func (s *Store) AddRoundData(round int, rd *scanner.RoundData) {
	for i := range rd.Blocks {
		br := &rd.Blocks[i]
		bi := s.BlockIndex(br.Block)
		if bi < 0 {
			continue
		}
		resp := int(br.RespCount)
		if resp > RespCap {
			resp = RespCap
		}
		s.resp[bi][round] = uint8(resp)
		if br.RTTCount > 0 {
			if _, ok := s.rtt[bi]; ok {
				s.rtt[bi][round] = uint16(br.MeanRTT().Milliseconds())
			}
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
	resp := s.resp[blockIdx]
	for r := lo; r < hi; r++ {
		if s.missing[r] {
			continue
		}
		st.MeasuredRounds++
		c := int(resp[r])
		sum += c
		if c > st.EverActive {
			st.EverActive = c
		}
		if s.Routed(blockIdx, r) {
			st.RoutedRounds++
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
	if len(s.blocks) != len(s.resp) || len(s.blocks) != len(s.routed) {
		return fmt.Errorf("dataset: column length mismatch")
	}
	for i := 1; i < len(s.blocks); i++ {
		if s.blocks[i-1] >= s.blocks[i] {
			return fmt.Errorf("dataset: blocks not sorted at %d", i)
		}
	}
	return nil
}
