package dataset

import (
	"bufio"
	"encoding/binary"
	"io"
	"sort"
)

// The staged v4 coder, kept verbatim as the oracle of appendColumn,
// columnLen and the streamed WriteTo: the column coding went through a
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

// refWriteTo is WriteTo with the staged resp section, counting above its
// buffer.
func (s *Store) refWriteTo(w io.Writer) (int64, error) {
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
func refRecord(s *Store, round int) []byte {
	nblocks := s.NumBlocks()
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
