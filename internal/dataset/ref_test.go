package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/timeline"
)

// The staged v4 coder, kept verbatim as the oracle of columnCoder and the
// streamed WriteTo: the column coding went through a
// transformed copy of each column and an RLE pass over every byte of it, and
// WriteTo staged the whole resp blob before writing the column index.

// rleAppend compresses src onto dst.
func rleAppend(dst, src []byte) []byte {
	i := 0
	n := len(src)
	litStart := -1
	flushLits := func(end int) {
		for litStart < end {
			chunk := end - litStart
			if chunk > maxLiteralChunk {
				chunk = maxLiteralChunk
			}
			dst = append(dst, byte(chunk-1))
			dst = append(dst, src[litStart:litStart+chunk]...)
			litStart += chunk
		}
		litStart = -1
	}
	for i < n {
		// Measure the run at i.
		j := i + 1
		for j < n && src[j] == src[i] && j-i < maxRun {
			j++
		}
		if j-i >= minRun+1 || (j-i >= minRun && litStart < 0) {
			if litStart >= 0 {
				flushLits(i)
			}
			dst = append(dst, byte(j-i-minRun+128), src[i])
			i = j
			continue
		}
		if litStart < 0 {
			litStart = i
		}
		i++
	}
	if litStart >= 0 {
		flushLits(n)
	}
	return dst
}

// deltaRLEAppend compresses src onto dst as byte-wise wrapping deltas fed
// through the RLE above (the v4 column coding). Responsive-count rows are
// near-constant plateaus with occasional steps, so the delta transform turns
// them into almost-all-zero streams that collapse into maximal runs.
// scratch holds the transformed copy between calls (src is not modified).
func deltaRLEAppend(dst, src []byte, scratch *[]byte) []byte {
	if cap(*scratch) < len(src) {
		*scratch = make([]byte, len(src))
	}
	d := (*scratch)[:len(src)]
	var prev byte
	for i, v := range src {
		d[i] = v - prev
		prev = v
	}
	return rleAppend(dst, d)
}

// The byte-at-a-time decoder, kept verbatim as the oracle of rleDecode and
// deltaRLEDecode, which fill a run eight bytes per store.

// refDeltaRLEDecode is the inverse of the column coding: RLE-decode into
// dst, then undo the delta transform with an in-place prefix sum. dst must
// be exactly the expected length.
func refDeltaRLEDecode(dst, src []byte) error {
	if err := refRLEDecode(dst, src); err != nil {
		return err
	}
	var prev byte
	for i := range dst {
		prev += dst[i]
		dst[i] = prev
	}
	return nil
}

// refRLEDecode decompresses src into dst, which must be exactly the expected
// length.
func refRLEDecode(dst, src []byte) error {
	di := 0
	i := 0
	for i < len(src) {
		c := src[i]
		i++
		if c < 128 {
			n := int(c) + 1
			if i+n > len(src) || di+n > len(dst) {
				return errRLECorrupt
			}
			copy(dst[di:], src[i:i+n])
			i += n
			di += n
		} else {
			if i >= len(src) {
				return errRLECorrupt
			}
			n := int(c) - 128 + minRun
			if di+n > len(dst) {
				return errRLECorrupt
			}
			v := src[i]
			i++
			for k := 0; k < n; k++ {
				dst[di+k] = v
			}
			di += n
		}
	}
	if di != len(dst) {
		return fmt.Errorf("%w: decoded %d of %d bytes", errRLECorrupt, di, len(dst))
	}
	return nil
}

// refStore is the store as it was before its columns were segmented, kept
// as the oracle of the segmented Store: every block's resp row and routed
// bitset and every tracked block's RTT row sized to the planned timeline at
// creation.
type refStore struct {
	tl       *timeline.Timeline
	blocks   []netmodel.BlockID
	resp     [][]uint8
	routed   [][]uint64
	missing  []bool
	coverage []uint16
	done     []bool
	rtt      map[int][]uint16
}

// newRefStore is NewStore's oracle over blocks, which must be sorted and
// distinct.
func newRefStore(tl *timeline.Timeline, blocks []netmodel.BlockID) *refStore {
	s := &refStore{
		tl:       tl,
		blocks:   blocks,
		resp:     make([][]uint8, len(blocks)),
		routed:   make([][]uint64, len(blocks)),
		missing:  make([]bool, tl.NumRounds()),
		coverage: make([]uint16, tl.NumRounds()),
		done:     make([]bool, tl.NumRounds()),
		rtt:      make(map[int][]uint16),
	}
	for r := range s.coverage {
		s.coverage[r] = coverageFull
	}
	words := (tl.NumRounds() + 63) / 64
	for i := range blocks {
		s.resp[i] = make([]uint8, tl.NumRounds())
		s.routed[i] = make([]uint64, words)
	}
	return s
}

func (s *refStore) SetMissing(r int) {
	s.missing[r] = true
	s.done[r] = true
}

func (s *refStore) SetDone(r int) { s.done[r] = true }

func (s *refStore) SetCoverage(r int, frac float64) {
	s.coverage[r] = uint16(min(max(frac, 0), 1)*coverageFull + 0.5)
}

func (s *refStore) SetRound(blockIdx, round int, resp int, routed bool) {
	s.resp[blockIdx][round] = uint8(min(max(resp, 0), RespCap))
	if routed {
		s.routed[blockIdx][round/64] |= 1 << (round % 64)
	} else {
		s.routed[blockIdx][round/64] &^= 1 << (round % 64)
	}
}

func (s *refStore) TrackRTT(blockIdx int) {
	if _, ok := s.rtt[blockIdx]; !ok {
		s.rtt[blockIdx] = make([]uint16, s.tl.NumRounds())
	}
}

func (s *refStore) SetRTT(blockIdx, round int, ms uint16) {
	if arr, ok := s.rtt[blockIdx]; ok {
		arr[round] = ms
	}
}

func (s *refStore) AddRoundData(round int, rd *scanner.RoundData) {
	for i := range rd.Blocks {
		br := &rd.Blocks[i]
		bi := sort.Search(len(s.blocks), func(j int) bool { return s.blocks[j] >= br.Block })
		if bi == len(s.blocks) || s.blocks[bi] != br.Block {
			continue
		}
		s.resp[bi][round] = uint8(min(int(br.RespCount), RespCap))
		if br.RTTCount > 0 {
			s.SetRTT(bi, round, uint16(br.MeanRTT().Milliseconds()))
		}
	}
}

func (s *refStore) Resp(blockIdx, round int) int { return int(s.resp[blockIdx][round]) }

func (s *refStore) Routed(blockIdx, round int) bool {
	return s.routed[blockIdx][round/64]>>(round%64)&1 == 1
}

func (s *refStore) RTT(blockIdx, round int) uint16 {
	if arr, ok := s.rtt[blockIdx]; ok {
		return arr[round]
	}
	return 0
}

func (s *refStore) MonthStats(blockIdx, month int) MonthlyBlockStats {
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

func (s *refStore) EligibleFBS(blockIdx, month, minEver int) bool {
	return s.MonthStats(blockIdx, month).EverActive >= minEver
}

func (s *refStore) EligibleTrinocular(blockIdx, month int) (eligible, indeterminate bool) {
	st := s.MonthStats(blockIdx, month)
	eligible = st.EverActive >= 15 && st.Availability >= 0.1
	indeterminate = eligible && st.Availability < 0.3
	return eligible, indeterminate
}

// nonzeroSegments counts the SegmentRounds-round segments in which some
// block has a nonzero count or routed bit: the segments ReadFrom keeps.
func (s *refStore) nonzeroSegments() int {
	n := 0
	for lo := 0; lo < s.tl.NumRounds(); lo += SegmentRounds {
		for bi := range s.blocks {
			if s.routed[bi][lo/64] != 0 || byteExtent(s.resp[bi][lo:min(lo+SegmentRounds, len(s.resp[bi]))]) > 0 {
				n++
				break
			}
		}
	}
	return n
}

// twin is a Store and its planned-row oracle, written in step: each of its
// setters writes the same cells to both, and every read goes to the Store.
type twin struct {
	*Store
	ref *refStore
}

func newTwin(tl *timeline.Timeline, blocks []netmodel.BlockID) *twin {
	s := NewStore(tl, blocks)
	return &twin{Store: s, ref: newRefStore(tl, s.Blocks())}
}

func (w *twin) SetMissing(r int) {
	w.Store.SetMissing(r)
	w.ref.SetMissing(r)
}

func (w *twin) SetDone(r int) {
	w.Store.SetDone(r)
	w.ref.SetDone(r)
}

func (w *twin) SetCoverage(r int, frac float64) {
	w.Store.SetCoverage(r, frac)
	w.ref.SetCoverage(r, frac)
}

func (w *twin) SetRound(blockIdx, round int, resp int, routed bool) {
	w.Store.SetRound(blockIdx, round, resp, routed)
	w.ref.SetRound(blockIdx, round, resp, routed)
}

func (w *twin) TrackRTT(blockIdx int) {
	w.Store.TrackRTT(blockIdx)
	w.ref.TrackRTT(blockIdx)
}

func (w *twin) SetRTT(blockIdx, round int, ms uint16) {
	w.Store.SetRTT(blockIdx, round, ms)
	w.ref.SetRTT(blockIdx, round, ms)
}

func (w *twin) AddRoundData(round int, rd *scanner.RoundData) {
	w.Store.AddRoundData(round, rd)
	w.ref.AddRoundData(round, rd)
}

// writeTo is WriteTo with the staged resp section, counting above its
// buffer.
func (s *refStore) writeTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, fileBuf)
	cw := &countingWriter{w: bw}
	e := &enc{w: cw}

	e.raw([]byte(fileMagic))
	e.u32(fileVersion)
	e.i64(s.tl.Start().UnixNano())
	e.i64(int64(s.tl.Interval()))
	e.u32(uint32(s.tl.NumRounds()))
	e.u32(uint32(len(s.blocks)))

	ids := make([]uint32, len(s.blocks))
	for i, b := range s.blocks {
		ids[i] = uint32(b)
	}
	e.u32s(ids)

	miss := make([]uint64, (s.tl.NumRounds()+63)/64)
	for r, m := range s.missing {
		if m {
			miss[r/64] |= 1 << (r % 64)
		}
	}
	e.u64s(miss)
	done := make([]uint64, (s.tl.NumRounds()+63)/64)
	for r, d := range s.done {
		if d {
			done[r/64] |= 1 << (r % 64)
		}
	}
	e.u64s(done)
	var npartial uint32
	for _, c := range s.coverage {
		if c != coverageFull {
			npartial++
		}
	}
	e.u32(npartial)
	for r, c := range s.coverage {
		if c != coverageFull {
			e.u32(uint32(r))
			e.u16(c)
		}
	}
	// v4 resp section: the column index precedes the data, so the blob is
	// staged up front (two amortized allocations for the whole store).
	lens := make([]uint32, len(s.resp))
	var blob, scratch []byte
	for i := range s.resp {
		n := len(blob)
		blob = deltaRLEAppend(blob, s.resp[i], &scratch)
		lens[i] = uint32(len(blob) - n)
	}
	e.u32s(lens)
	e.raw(blob)
	for _, row := range s.routed {
		e.u64s(row)
	}
	tracked := make([]int, 0, len(s.rtt))
	for bi := range s.rtt {
		tracked = append(tracked, bi)
	}
	sort.Ints(tracked)
	e.u32(uint32(len(tracked)))
	for _, bi := range tracked {
		e.u32(uint32(bi))
		e.u16s(s.rtt[bi])
	}
	if e.err != nil {
		return cw.n, e.err
	}
	return cw.n, bw.Flush()
}

// refRecord is the body of RoundLog.Append before it took the streamed
// coder: round's framed journal record, built with the staged one.
func refRecord(s *refStore, round int) []byte {
	nblocks := len(s.blocks)
	col := make([]uint8, nblocks)
	var scratch []byte
	for bi := 0; bi < nblocks; bi++ {
		col[bi] = s.resp[bi][round]
	}
	var b []byte
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(round))
	b = append(b, tmp[:4]...)
	var flags byte
	if s.missing[round] {
		flags |= 1
	}
	if s.done[round] {
		flags |= 2
	}
	b = append(b, flags)
	binary.LittleEndian.PutUint16(tmp[:2], s.coverage[round])
	b = append(b, tmp[:2]...)
	lenAt := len(b)
	b = append(b, 0, 0, 0, 0)
	b = deltaRLEAppend(b, col, &scratch)
	binary.LittleEndian.PutUint32(b[lenAt:], uint32(len(b)-lenAt-4))
	for base := 0; base < nblocks; base += 64 {
		limit := base + 64
		if limit > nblocks {
			limit = nblocks
		}
		var w uint64
		for bi := base; bi < limit; bi++ {
			if s.Routed(bi, round) {
				w |= 1 << (bi - base)
			}
		}
		var wb [8]byte
		binary.LittleEndian.PutUint64(wb[:], w)
		b = append(b, wb[:]...)
	}
	return b
}
