package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
)

// Binary file format (little endian):
//
//	magic "CMDS" | version u32 | startUnixNano i64 | interval i64 | rounds u32
//	nblocks u32 | blockIDs [nblocks]u32
//	missing bitset [(rounds+63)/64]u64
//	done bitset [(rounds+63)/64]u64
//	npartial u32 | npartial × (round u32, coverage u16) — only rounds
//	     below full coverage are listed (normally none)
//	resp rows: column index [nblocks]u32 (encoded lengths), then the
//	           concatenated delta+RLE blob in block order
//	routed rows: nblocks × words u64
//	ntracked u32 | per tracked: blockIdx u32, rounds × u16 RTT ms
//
// Every row is written to the planned length: the cells of segments a store
// never wrote go out as zeros, and ReadFrom keeps only the segments that hold
// a nonzero cell.

const (
	fileMagic = "CMDS"
	// Version 4 — the only one read or written — delta codes resp rows
	// before the RLE (plateau rows collapse into runs) and fronts them with
	// a column index of encoded lengths. It carries the done bitset and
	// per-round coverage used by checkpoint/resume and partial-round gating.
	fileVersion = 4
)

// enc is a sticky-error little-endian encoder. It replaces the
// reflection-based binary.Write calls on the per-row path: every value and
// slice is packed into one reusable scratch buffer and written in a single
// call, so serializing a store performs O(1) allocations regardless of how
// many block rows it holds.
type enc struct {
	w       io.Writer
	scratch []byte
	err     error
}

// bytes returns the scratch buffer resized to n (only valid until the next
// codec call).
func (e *enc) bytes(n int) []byte {
	if cap(e.scratch) < n {
		e.scratch = make([]byte, n)
	}
	e.scratch = e.scratch[:n]
	return e.scratch
}

func (e *enc) raw(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *enc) u16(v uint16) {
	if e.err != nil {
		return
	}
	b := e.bytes(2)
	binary.LittleEndian.PutUint16(b, v)
	_, e.err = e.w.Write(b)
}

func (e *enc) u32(v uint32) {
	if e.err != nil {
		return
	}
	b := e.bytes(4)
	binary.LittleEndian.PutUint32(b, v)
	_, e.err = e.w.Write(b)
}

func (e *enc) i64(v int64) {
	if e.err != nil {
		return
	}
	b := e.bytes(8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	_, e.err = e.w.Write(b)
}

func (e *enc) u16s(vs []uint16) {
	if e.err != nil {
		return
	}
	b := e.bytes(2 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint16(b[2*i:], v)
	}
	_, e.err = e.w.Write(b)
}

func (e *enc) u32s(vs []uint32) {
	if e.err != nil {
		return
	}
	b := e.bytes(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	_, e.err = e.w.Write(b)
}

func (e *enc) u64s(vs []uint64) {
	if e.err != nil {
		return
	}
	b := e.bytes(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	_, e.err = e.w.Write(b)
}

// fileBuf is the bufio buffer WriteTo and ReadFrom take. It only has to
// gather the header, index and per-column fields: any row or column larger
// than it goes through in one Write or ReadFull that bypasses it, so a
// paper-scale file loses nothing to a buffer sized for what the Monitor
// writes every few rounds — a campaign checkpoint of tens of kilobytes.
const fileBuf = 64 << 10

// fileWriter is WriteTo's working memory, lent by writerPool from one call
// to the next: the buffered writer, the encoder's scratch, the coded
// columns kept from the count pass (at most codedBudget bytes), one
// column's scratch, the row a block's counts are filled into and the column
// coder's delta row. A campaign checkpoints every few rounds, and each call
// would otherwise allocate a fileBuf-sized buffer for a file of tens of
// kilobytes.
type fileWriter struct {
	bw              *bufio.Writer
	e               enc
	coded, col, row []byte
	cc              columnCoder
}

// codedBudget bounds the coded columns WriteTo keeps between its two passes:
// a checkpoint's resp section fits, a paper-scale file's does not.
const codedBudget = 32 << 10

// writerPool holds idle fileWriters, each put back with its writer
// Reset(nil): a pooled one holds no caller's io.Writer.
var writerPool = sync.Pool{New: func() any {
	return &fileWriter{bw: bufio.NewWriterSize(nil, fileBuf), coded: make([]byte, 0, codedBudget)}
}}

// WriteTo serializes the store. Its count is taken below the buffer, so
// after a failed write it is what w accepted, not what was buffered.
// Concurrent calls are safe: each takes its own fileWriter.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	fw := writerPool.Get().(*fileWriter)
	defer func() {
		fw.bw.Reset(nil)
		writerPool.Put(fw)
	}()
	fw.bw.Reset(cw)
	fw.e = enc{w: fw.bw, scratch: fw.e.scratch}
	e := &fw.e

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
	// v4 resp section: the column index precedes the data, so a count pass
	// codes every column, from its block's row, and keeps the coded columns
	// while they fit in codedBudget; the emit pass writes those and codes
	// only the rest again. A checkpoint's columns fit, so each block's counts
	// are copied out of the segments once; the working memory stays one row
	// of the written rounds, its deltas, the budget and the longest column,
	// not the file. Every cell past the last written segment is zero, so the
	// row holds the rounds up to it and one zero cell more, where a column
	// steps down to its zero tail.
	rounds := s.tl.NumRounds()
	written := 0
	for k, sg := range s.segs {
		if sg != nil {
			written = min(rounds, (k+1)<<segShift)
		}
	}
	need := min(rounds, written+1)
	if cap(fw.row) < need {
		fw.row = make([]byte, max(need, 2*cap(fw.row)))
	}
	row := fw.row[:need]
	clear(row) // fillRow leaves the cells of unwritten segments as they are
	lens := make([]uint32, len(s.blocks))
	coded, col, cc := fw.coded[:0], fw.col, &fw.cc
	kept := 0 // blocks [0, kept) are coded in coded
	for bi := range s.blocks {
		col = cc.appendColumn(col[:0], s.fillRow(row, bi), rounds)
		lens[bi] = uint32(len(col))
		if kept == bi && len(coded)+len(col) <= cap(coded) {
			coded = append(coded, col...)
			kept++
		}
	}
	e.u32s(lens)
	e.raw(coded)
	for bi := kept; bi < len(s.blocks); bi++ {
		col = cc.appendColumn(col[:0], s.fillRow(row, bi), rounds)
		e.raw(col)
	}
	fw.coded, fw.col = coded, col
	for bi := range s.blocks {
		words := e.bytes(8 * len(s.segs))
		for k, sg := range s.segs {
			var w uint64
			if sg != nil {
				w = sg.routed[bi]
			}
			binary.LittleEndian.PutUint64(words[8*k:], w)
		}
		e.raw(words)
	}
	var ntracked uint32
	for _, arr := range s.rtt {
		if arr != nil {
			ntracked++
		}
	}
	e.u32(ntracked)
	for bi, arr := range s.rtt {
		if arr != nil {
			e.u32(uint32(bi))
			e.u16s(arr)
		}
	}
	if e.err == nil {
		e.err = fw.bw.Flush()
	}
	return cw.n, e.err
}

// fillRow copies block bi's responsive counts from the written segments
// into row, which holds a prefix of the timeline at least as long as the
// last written segment, and returns it. The cells of segments never written
// are left as they are: zero, in a row only ever filled by fillRow.
func (s *Store) fillRow(row []byte, bi int) []byte {
	for k, sg := range s.segs {
		if sg != nil {
			copy(row[k<<segShift:], sg.resp[bi<<segShift:(bi+1)<<segShift])
		}
	}
	return row
}

// dec is the sticky-error counterpart of enc: fixed-width values are read
// through one reusable scratch buffer instead of per-call binary.Read
// reflection.
type dec struct {
	r       io.Reader
	scratch []byte
	err     error
}

// bytes reads exactly n bytes into the reusable scratch buffer (contents
// valid until the next codec call); returns nil after any error.
func (d *dec) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	d.scratch = d.scratch[:n]
	if _, err := io.ReadFull(d.r, d.scratch); err != nil {
		d.err = err
		return nil
	}
	return d.scratch
}

func (d *dec) u16() uint16 {
	if b := d.bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (d *dec) u32() uint32 {
	if b := d.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *dec) i64() int64 {
	if b := d.bytes(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (d *dec) u32s(dst []uint32) {
	b := d.bytes(4 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
}

func (d *dec) u64s(dst []uint64) {
	b := d.bytes(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

func (d *dec) u16s(dst []uint16) {
	b := d.bytes(2 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
}

// ReadFrom deserializes a store written by WriteTo.
func ReadFrom(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, fileBuf)
	d := &dec{r: br}

	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	version := d.u32()
	startNano := d.i64()
	interval := d.i64()
	rounds := d.u32()
	nblocks := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if version != fileVersion {
		return nil, fmt.Errorf("dataset: unsupported version %d", version)
	}
	if rounds == 0 || rounds > 1<<22 || nblocks > 1<<22 {
		return nil, fmt.Errorf("dataset: implausible dimensions %d×%d", nblocks, rounds)
	}
	start := time.Unix(0, startNano).UTC()
	end := start.Add(time.Duration(int64(rounds)-1) * time.Duration(interval))
	tl := timeline.New(start, end, time.Duration(interval))
	if tl.NumRounds() != int(rounds) {
		return nil, fmt.Errorf("dataset: timeline reconstruction mismatch")
	}

	ids := make([]uint32, nblocks)
	d.u32s(ids)
	if d.err != nil {
		return nil, d.err
	}
	blocks := make([]netmodel.BlockID, nblocks)
	for i, id := range ids {
		blocks[i] = netmodel.BlockID(id)
	}
	s := NewStore(tl, blocks)
	if len(s.blocks) != int(nblocks) {
		return nil, fmt.Errorf("dataset: duplicate blocks in file")
	}

	miss := make([]uint64, (rounds+63)/64)
	d.u64s(miss)
	if d.err != nil {
		return nil, d.err
	}
	for r := 0; r < int(rounds); r++ {
		if miss[r/64]>>(r%64)&1 == 1 {
			s.missing[r] = true
		}
	}
	done := make([]uint64, (rounds+63)/64)
	d.u64s(done)
	if d.err != nil {
		return nil, d.err
	}
	for r := 0; r < int(rounds); r++ {
		s.done[r] = done[r/64]>>(r%64)&1 == 1
	}
	npartial := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if npartial > rounds {
		return nil, fmt.Errorf("dataset: implausible partial-round count %d", npartial)
	}
	for i := 0; i < int(npartial); i++ {
		r := d.u32()
		c := d.u16()
		if d.err != nil {
			return nil, d.err
		}
		if r >= rounds {
			return nil, fmt.Errorf("dataset: partial round %d out of range", r)
		}
		s.coverage[r] = c
	}
	lens := make([]uint32, nblocks)
	d.u32s(lens)
	if d.err != nil {
		return nil, d.err
	}
	// Each column is decoded into one planned-length row, and only the
	// segments holding a nonzero cell are kept.
	row := make([]byte, rounds)
	for bi := range s.blocks {
		if lens[bi] > 2*rounds+64 {
			return nil, fmt.Errorf("dataset: implausible column length %d", lens[bi])
		}
		// The scratch buffer doubles as the per-column staging area; it is
		// fully consumed by the decode before the next codec call reuses it.
		rle := d.bytes(int(lens[bi]))
		if d.err != nil {
			return nil, d.err
		}
		if err := deltaRLEDecode(row, rle); err != nil {
			return nil, err
		}
		for k := range s.segs {
			if cells := row[k<<segShift : min(len(row), (k+1)<<segShift)]; !allZero(cells) {
				copy(s.writable(k).resp[bi<<segShift:], cells)
			}
		}
	}
	for bi := range s.blocks {
		words := d.bytes(8 * len(s.segs))
		if words == nil {
			return nil, d.err
		}
		for k := range s.segs {
			if w := binary.LittleEndian.Uint64(words[8*k:]); w != 0 {
				s.writable(k).routed[bi] = w
			}
		}
	}
	ntracked := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	for i := 0; i < int(ntracked); i++ {
		bi := d.u32()
		if d.err != nil {
			return nil, d.err
		}
		if int(bi) >= len(s.blocks) {
			return nil, fmt.Errorf("dataset: tracked block index %d out of range", bi)
		}
		arr := make([]uint16, rounds)
		d.u16s(arr)
		if s.rtt == nil {
			s.rtt = make([][]uint16, len(s.blocks))
		}
		s.rtt[bi] = arr // a block listed twice keeps its last row
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// SaveSync writes the store to a file and fsyncs it before closing, so the
// bytes are durable — not just in the page cache — when it returns. A
// checkpoint temp file needs that before it is renamed over live state: a
// rename is only crash-safe if the renamed content already hit the disk.
func (s *Store) SaveSync(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := s.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a store from a file.
func Load(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}

// allZero reports whether every byte of b is zero, eight bytes per load.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
