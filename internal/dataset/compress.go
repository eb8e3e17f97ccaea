package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Run-length coding for per-round responsive-count rows (PackBits-style).
// The paper cites the storage cost of the full FBS signal as a design
// constraint (§3.1: bi-hourly was partly chosen to bound storage); block
// rows are highly redundant — sparse blocks are constant zero, active
// blocks sit near a plateau — so runs dominate.
//
// Encoding: a control byte c, then
//
//	c < 128  → c+1 literal bytes follow
//	c ≥ 128  → one byte follows, repeated c-126 times (run of 2..129)
//
// Worst case overhead is 1 byte per 128 literals (< 0.8%).

const (
	maxLiteralChunk = 128
	minRun          = 2
	maxRun          = 129
)

// The v4 column coding runs src's byte-wise wrapping deltas through the RLE
// above. Responsive-count rows are near-constant plateaus with occasional
// steps, so the delta transform turns them into almost-all-zero streams that
// collapse into maximal runs.
//
// appendColumn appends src's coding to dst in one token walk that takes
// each delta as it goes, so nothing is staged. A column is zero past its
// last nonzero cell, where the deltas are one step down and then zeros: from
// there every token is a maximal zero run whose length is known without
// reading the bytes, so the walk stops scanning at that tail.
//
// The column is n cells long, and src holds its first ones: every cell past
// src is zero. src is either the whole column or ends in a zero cell, so the
// step down to the zero tail lies within it — a store that wrote a few
// rounds of a long timeline codes its columns from a row of those rounds.
//
// The walk tokenizes src's deltas greedily: at each position the run there
// is taken when it is at least minRun+1 long, or minRun long with no
// literals pending; otherwise the byte joins the pending literals.
func appendColumn(dst, src []byte, n int) []byte {
	// Every delta at or past tail is zero: one past the step down from the
	// last nonzero cell.
	tail := byteExtent(src)
	if tail > 0 && tail < n {
		tail++
	}
	litStart := -1
	for i := 0; i < n; {
		var v byte
		j := min(n, i+maxRun)
		if i < tail {
			v = delta(src, i)
			// The run goes on while each byte is the last plus v. It ends by
			// tail, which src holds.
			seg, next, k := src[i:min(j, len(src))], src[i], 1
			for ; k < len(seg); k++ {
				if next += v; seg[k] != next {
					break
				}
			}
			j = i + k
		}
		if j-i >= minRun+1 || (j-i >= minRun && litStart < 0) {
			if litStart >= 0 {
				dst = appendLiterals(dst, src, litStart, i)
				litStart = -1
			}
			dst = append(dst, byte(j-i-minRun+128), v)
			i = j
			continue
		}
		if litStart < 0 {
			litStart = i
		}
		i++
	}
	if litStart >= 0 {
		dst = appendLiterals(dst, src, litStart, n)
	}
	return dst
}

// appendLiterals codes the deltas of cells [from, to) as literal chunks.
// Only the column's last cells can lie past src, in the zero tail, where
// every delta is zero.
func appendLiterals(dst, src []byte, from, to int) []byte {
	for from < to {
		chunk := min(to-from, maxLiteralChunk)
		dst = append(dst, byte(chunk-1))
		for k := from; k < min(from+chunk, len(src)); k++ {
			dst = append(dst, delta(src, k))
		}
		for k := max(from, len(src)); k < from+chunk; k++ {
			dst = append(dst, 0)
		}
		from += chunk
	}
	return dst
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

// delta is src's wrapping step into cell k (from zero at k = 0).
func delta(src []byte, k int) byte {
	if k == 0 {
		return src[0]
	}
	return src[k] - src[k-1]
}

// deltaRLEDecode is the inverse of appendColumn: RLE-decode into dst, then
// undo the delta transform with an in-place prefix sum. dst must be exactly
// the expected length.
func deltaRLEDecode(dst, src []byte) error {
	if err := rleDecode(dst, src); err != nil {
		return err
	}
	var prev byte
	for i := range dst {
		prev += dst[i]
		dst[i] = prev
	}
	return nil
}

var errRLECorrupt = errors.New("dataset: corrupt RLE stream")

// rleDecode decompresses src into dst, which must be exactly the expected
// length.
func rleDecode(dst, src []byte) error {
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
