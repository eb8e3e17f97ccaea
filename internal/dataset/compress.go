package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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

// The coder and decoder work on eight cells per 64-bit word: lanes has a
// one in each byte lane and tops each lane's top bit.
const (
	lanes = 0x0101010101010101
	tops  = 0x8080808080808080
)

// The v4 column coding runs a column's byte-wise wrapping deltas through the
// RLE above. Responsive-count rows are near-constant plateaus with
// occasional steps, so the delta transform turns them into almost-all-zero
// streams that collapse into maximal runs.
//
// columnCoder codes columns. It holds the row of deltas between calls, so a
// writer that codes one column per block, or per round, allocates it once.
//
// A column is n cells long, and the src a call takes holds its first ones:
// every cell past src is zero. src is either the whole column or ends in a
// zero cell, so the step down to the zero tail lies within it — a store that
// wrote a few rounds of a long timeline codes its columns from a row of
// those rounds. Past that step every delta is zero and every token a zero
// run whose length is known without reading a byte, so a column costs its
// written cells, not its length.
//
// The tokens are taken greedily: at each position the run there is taken
// when it is at least minRun+1 long, or minRun long with no literals
// pending; otherwise the delta joins the pending literals.
type columnCoder struct {
	d []byte
}

// deltas writes the column's deltas up to its zero tail into the coder's
// row, eight per word, and returns them: every delta at or past len(d) is
// zero. The row holds eight bytes more, so a word load at any delta stays
// inside it. It grows by doubling, so a writer whose rows grow a segment
// at a time regrows it a few times, not once a segment.
func (c *columnCoder) deltas(src []byte, n int) []byte {
	// The zero tail starts one past the step down from the last nonzero
	// cell.
	tail := byteExtent(src)
	if tail > 0 && tail < n {
		tail++
	}
	if cap(c.d) < tail+8 {
		c.d = make([]byte, max(len(src)+8, 2*cap(c.d)))
	}
	d := c.d[:tail]
	if tail == 0 {
		return d
	}
	d[0] = src[0]
	k := 1
	for ; k+8 <= tail; k += 8 {
		// Eight byte subtractions at once: each lane's top bit is set in x
		// and cleared in y, so no lane borrows from the next, and the last
		// XOR restores the top bits.
		x := binary.LittleEndian.Uint64(src[k:])
		y := binary.LittleEndian.Uint64(src[k-1:])
		binary.LittleEndian.PutUint64(d[k:], ((x|tops)-(y&^tops))^((x^^y)&tops))
	}
	for ; k < tail; k++ {
		d[k] = src[k] - src[k-1]
	}
	return d
}

// appendColumn appends the coding of the n-cell column src begins to dst.
func (c *columnCoder) appendColumn(dst, src []byte, n int) []byte {
	d := c.deltas(src, n)
	tail := len(d)
	d = d[:tail+8]
	litStart := -1
	for i := 0; i < n; {
		var v byte
		if i < tail && litStart >= 0 {
			// Inside a literal stretch only a run of minRun+1 is taken:
			// skip to where three equal deltas start one.
			if i = runStart(d, i, tail); i == tail {
				continue
			}
		}
		j := min(n, i+maxRun)
		if i < tail {
			// A run never crosses the tail: the step down before it is
			// nonzero and the deltas past it are zero.
			v, j = d[i], runEnd(d, i, min(j, tail))
		}
		if j-i >= minRun+1 || (j-i >= minRun && litStart < 0) {
			if litStart >= 0 {
				dst = appendLiterals(dst, d[:tail], litStart, i)
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
		dst = appendLiterals(dst, d[:tail], litStart, n)
	}
	return dst
}

// appendLiterals codes the deltas of cells [from, to) as literal chunks,
// one append each. Cells past len(d) lie in the zero tail.
func appendLiterals(dst, d []byte, from, to int) []byte {
	for from < to {
		end := min(to, from+maxLiteralChunk)
		dst = append(dst, byte(end-from-1))
		dst = append(dst, d[min(from, len(d)):min(end, len(d))]...)
		for k := max(from, len(d)); k < end; k++ {
			dst = append(dst, 0)
		}
		from = end
	}
	return dst
}

// runEnd returns the end of the run of deltas equal to d[i], at most limit,
// comparing eight deltas per load. limit is at most len(d)-8.
func runEnd(d []byte, i, limit int) int {
	v := uint64(d[i]) * lanes
	for k := i + 1; k < limit; k += 8 {
		if x := binary.LittleEndian.Uint64(d[k:]) ^ v; x != 0 {
			return min(limit, k+bits.TrailingZeros64(x)/8)
		}
	}
	return limit
}

// runStart returns the first k ≥ i at which three equal deltas start, all
// below tail, or tail when there is none, testing eight starts per word: a
// start is a zero lane of d[k]^d[k+1] | d[k+1]^d[k+2]. d holds eight bytes
// past tail.
func runStart(d []byte, i, tail int) int {
	for k := i; k+2 < tail; k += 8 {
		w0 := binary.LittleEndian.Uint64(d[k:])
		w1 := binary.LittleEndian.Uint64(d[k+1:])
		w2 := binary.LittleEndian.Uint64(d[k+2:])
		x := (w0 ^ w1) | (w1 ^ w2)
		// The lowest lane flagged here is x's lowest zero lane; a borrow
		// can only flag lanes above it.
		if z := (x - lanes) &^ x & tops; z != 0 {
			if p := k + bits.TrailingZeros64(z)/8; p+2 < tail {
				return p
			}
			return tail
		}
	}
	return tail
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

// deltaRLEDecode is the inverse of the column coding: RLE-decode into dst,
// then undo the delta transform with an in-place prefix sum. dst must be
// exactly the expected length.
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
// length. A run is filled eight bytes per store, and the last store may run
// past it into bytes the next tokens write: a stream that decodes fills
// every byte of dst in order, and one that does not leaves dst undefined.
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
			continue
		}
		if i >= len(src) {
			return errRLECorrupt
		}
		end := di + int(c) - 128 + minRun
		if end > len(dst) {
			return errRLECorrupt
		}
		v := src[i]
		i++
		w := uint64(v) * lanes
		for ; di < end && di+8 <= len(dst); di += 8 {
			binary.LittleEndian.PutUint64(dst[di:], w)
		}
		for ; di < end; di++ {
			dst[di] = v
		}
		di = end
	}
	if di != len(dst) {
		return fmt.Errorf("%w: decoded %d of %d bytes", errRLECorrupt, di, len(dst))
	}
	return nil
}
