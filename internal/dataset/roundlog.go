package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// RoundLog is an append-only journal of per-round observations, the
// streaming counterpart of the checkpoint file: a full store snapshot costs
// O(campaign) per write, the log costs O(blocks) per round. A campaign
// appends each handled round as it lands; after a crash, replaying the log
// over the last checkpoint reconstructs every round the snapshot missed.
//
// Binary format (little endian):
//
//	magic "CMRL" | version u32 | rounds u32 | nblocks u32
//	records: round u32 | flags u8 (bit0 missing, bit1 done) | coverage u16
//	         elen u32 | delta+RLE resp column (nblocks bytes decoded)
//	         routed bitset [(nblocks+63)/64]u64 (bit b = block b routed)
//
// Each record is one Write followed by one fsync, so a crash leaves at most
// one truncated record at the tail — which replay skips and the next open
// trims, so new records never land behind torn bytes.
const (
	roundLogMagic   = "CMRL"
	roundLogVersion = 1
)

const (
	roundLogHeaderLen = 4 + 4 + 4 + 4
	// roundLogRecordHeaderLen is a record's fixed part: round, flags,
	// coverage, elen.
	roundLogRecordHeaderLen = 4 + 1 + 2 + 4
)

// roundLogRecordLen returns the full framed length of the record whose fixed
// part is hdr.
func roundLogRecordLen(hdr []byte, nblocks int) (int, error) {
	elen := int(binary.LittleEndian.Uint32(hdr[7:]))
	if elen > 2*nblocks+64 {
		return 0, fmt.Errorf("dataset: round log: implausible column length %d", elen)
	}
	return roundLogRecordHeaderLen + elen + 8*((nblocks+63)/64), nil
}

// RoundLog appends per-round records to a journal file. Not safe for
// concurrent use; the campaign loop owns it.
type RoundLog struct {
	f       *os.File
	rounds  int
	nblocks int
	col     []uint8 // per-round resp column scratch
	buf     []byte  // record staging buffer
	cc      columnCoder
}

// OpenRoundLog opens (or creates) the journal at path for appending rounds
// of s. An existing log's header must match the store's dimensions; a torn
// final record (a crash mid-append) is cut off, durably, before the log is
// positioned for appending.
func OpenRoundLog(path string, s *Store) (*RoundLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &RoundLog{
		f:       f,
		rounds:  s.tl.NumRounds(),
		nblocks: s.NumBlocks(),
		col:     make([]uint8, s.NumBlocks()),
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		hdr := make([]byte, roundLogHeaderLen)
		copy(hdr, roundLogMagic)
		binary.LittleEndian.PutUint32(hdr[4:], roundLogVersion)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(l.rounds))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(l.nblocks))
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		hdr := make([]byte, roundLogHeaderLen)
		if _, err := f.ReadAt(hdr, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("dataset: round log header: %w", err)
		}
		if err := checkRoundLogHeader(hdr, l.rounds, l.nblocks); err != nil {
			f.Close()
			return nil, err
		}
		if err := l.trimTornTail(st.Size()); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// walkRoundLog walks the record framing of a size-byte journal read through
// r: it calls rec (when non-nil) with the offset and framed length of every
// complete record in file order and returns the offset past the last one —
// where a torn final record, if there is one, begins.
func walkRoundLog(r io.ReaderAt, size int64, nblocks int, rec func(off int64, n int) error) (int64, error) {
	var hdr [roundLogRecordHeaderLen]byte
	end := int64(roundLogHeaderLen)
	for end+int64(len(hdr)) <= size {
		if _, err := r.ReadAt(hdr[:], end); err != nil {
			return end, err
		}
		n, err := roundLogRecordLen(hdr[:], nblocks)
		if err != nil {
			return end, err
		}
		if end+int64(n) > size {
			break
		}
		if rec != nil {
			if err := rec(end, n); err != nil {
				return end, err
			}
		}
		end += int64(n)
	}
	return end, nil
}

// trimTornTail truncates a size-byte journal at the end of its last complete
// record and leaves the file offset there. Appending at the old end of file
// instead would put the next record behind the torn bytes, where replay reads
// the two as one corrupt record.
func (l *RoundLog) trimTornTail(size int64) error {
	end, err := walkRoundLog(l.f, size, l.nblocks, nil)
	if err != nil {
		return err
	}
	if end < size {
		if err := l.f.Truncate(end); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	_, err = l.f.Seek(end, io.SeekStart)
	return err
}

func checkRoundLogHeader(hdr []byte, rounds, nblocks int) error {
	if string(hdr[:4]) != roundLogMagic {
		return fmt.Errorf("dataset: bad round log magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != roundLogVersion {
		return fmt.Errorf("dataset: unsupported round log version %d", v)
	}
	if r := binary.LittleEndian.Uint32(hdr[8:]); int(r) != rounds {
		return fmt.Errorf("dataset: round log rounds %d != store %d", r, rounds)
	}
	if n := binary.LittleEndian.Uint32(hdr[12:]); int(n) != nblocks {
		return fmt.Errorf("dataset: round log blocks %d != store %d", n, nblocks)
	}
	return nil
}

// Append journals round's state from s: resp column, routedness, missing,
// done and coverage. One durable write; safe to call again for the same
// round (replay keeps the last record).
func (l *RoundLog) Append(s *Store, round int) error {
	if round < 0 || round >= l.rounds {
		return fmt.Errorf("dataset: round log append %d out of range", round)
	}
	l.buf = l.record(l.buf[:0], s, round)
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	return l.f.Sync()
}

// record appends round's framed record to b.
func (l *RoundLog) record(b []byte, s *Store, round int) []byte {
	if sg := s.segs[round>>segShift]; sg != nil {
		for bi := range l.col {
			l.col[bi] = sg.resp[bi<<segShift|round&segMask]
		}
	} else {
		clear(l.col)
	}
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
	b = l.cc.appendColumn(b, l.col, len(l.col))
	binary.LittleEndian.PutUint32(b[lenAt:], uint32(len(b)-lenAt-4))
	for base := 0; base < l.nblocks; base += 64 {
		limit := base + 64
		if limit > l.nblocks {
			limit = l.nblocks
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

// Close closes the journal file.
func (l *RoundLog) Close() error { return l.f.Close() }

// ReplayRoundLog applies every complete record in the journal at path to s,
// returning the rounds applied in record order (a round journaled twice is
// applied twice; the later record wins). A truncated final record — the
// normal shape of a crash mid-append — is ignored silently; anything else
// malformed is an error.
func ReplayRoundLog(s *Store, path string) ([]int, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return nil, nil // created but never written: an empty journal
	}
	if len(buf) < roundLogHeaderLen {
		return nil, fmt.Errorf("dataset: round log too short")
	}
	rounds := s.tl.NumRounds()
	nblocks := s.NumBlocks()
	if err := checkRoundLogHeader(buf[:roundLogHeaderLen], rounds, nblocks); err != nil {
		return nil, err
	}
	words := (nblocks + 63) / 64
	col := make([]uint8, nblocks)
	var applied []int
	_, err = walkRoundLog(bytes.NewReader(buf), int64(len(buf)), nblocks, func(off int64, n int) error {
		rec := buf[off : off+int64(n)]
		round := int(binary.LittleEndian.Uint32(rec))
		if round >= rounds {
			return fmt.Errorf("dataset: round log: round %d out of range", round)
		}
		routed := rec[n-8*words:]
		if err := deltaRLEDecode(col, rec[roundLogRecordHeaderLen:n-8*words]); err != nil {
			return fmt.Errorf("dataset: round log round %d: %w", round, err)
		}
		for bi := 0; bi < nblocks; bi++ {
			w := binary.LittleEndian.Uint64(routed[8*(bi/64):])
			s.SetRound(bi, round, int(col[bi]), w>>(bi%64)&1 == 1)
		}
		s.coverage[round] = binary.LittleEndian.Uint16(rec[5:])
		s.missing[round] = rec[4]&1 != 0
		s.done[round] = rec[4]&2 != 0
		applied = append(applied, round)
		return nil
	})
	return applied, err
}
