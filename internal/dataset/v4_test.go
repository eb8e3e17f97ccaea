package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
)

// v4Store builds a small store with every kind of state the file format
// carries: varied resp rows, unrouted stretches, missing and partial and
// undone rounds, and a couple of RTT-tracked blocks.
func v4Store(t testing.TB) *Store { return v4Twin(t).Store }

// v4Twin builds v4Store's cells into a Store and its planned-row oracle.
func v4Twin(t testing.TB) *twin {
	t.Helper()
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(499*2*time.Hour), 2*time.Hour)
	blocks := make([]netmodel.BlockID, 70) // >64, so routed rows span two words
	for i := range blocks {
		blocks[i] = netmodel.BlockID(i * 3)
	}
	s := newTwin(tl, blocks)
	for bi := range blocks {
		for r := 0; r < tl.NumRounds(); r++ {
			s.SetRound(bi, r, (bi*31+r*7)%97, (bi+r)%13 != 0)
		}
	}
	s.SetMissing(17)
	s.SetMissing(230)
	s.SetCoverage(44, 0.5)
	s.SetCoverage(45, 0.91)
	for r := 0; r < 300; r++ {
		s.SetDone(r)
	}
	s.TrackRTT(3)
	s.TrackRTT(68)
	for r := 0; r < tl.NumRounds(); r++ {
		s.SetRTT(3, r, uint16(20+r%40))
		s.SetRTT(68, r, uint16(30+r%25))
	}
	return s
}

// benchStore builds a store of realistic shape: a year of 2-hour rounds over
// a few thousand blocks, a slice of them RTT-tracked, with varied resp rows
// so the RLE coder does real work.
func benchStore(tb testing.TB) *Store {
	tb.Helper()
	s := NewStore(benchTimeline(), benchBlocks())
	fillBench(s)
	return s
}

func benchTimeline() *timeline.Timeline {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	return timeline.New(start, start.AddDate(1, 0, 0), 2*time.Hour)
}

func benchBlocks() []netmodel.BlockID {
	blocks := make([]netmodel.BlockID, 2048)
	for i := range blocks {
		blocks[i] = netmodel.BlockID(i)
	}
	return blocks
}

// cellWriter is what the test stores are filled through: a Store, or a
// twin that fills a Store and its oracle alike.
type cellWriter interface {
	SetRound(blockIdx, round int, resp int, routed bool)
	TrackRTT(blockIdx int)
	SetRTT(blockIdx, round int, ms uint16)
}

// fillBench writes benchStore's cells through s.
func fillBench(s cellWriter) {
	tl, blocks := benchTimeline(), benchBlocks()
	for bi := range blocks {
		for r := 0; r < tl.NumRounds(); r++ {
			s.SetRound(bi, r, (bi*31+r*7)%97, r%3 != 0)
		}
		if bi%16 == 0 {
			s.TrackRTT(bi)
			for r := 0; r < tl.NumRounds(); r++ {
				s.SetRTT(bi, r, uint16(20+(bi+r)%40))
			}
		}
	}
}

func assertStoresEqual(t *testing.T, want, got *Store) {
	t.Helper()
	if got.NumBlocks() != want.NumBlocks() || got.Timeline().NumRounds() != want.Timeline().NumRounds() {
		t.Fatalf("dims %d×%d vs %d×%d", got.NumBlocks(), got.Timeline().NumRounds(),
			want.NumBlocks(), want.Timeline().NumRounds())
	}
	rounds := want.Timeline().NumRounds()
	for bi := 0; bi < want.NumBlocks(); bi++ {
		for r := 0; r < rounds; r++ {
			if got.Resp(bi, r) != want.Resp(bi, r) {
				t.Fatalf("block %d round %d: resp %d vs %d", bi, r, got.Resp(bi, r), want.Resp(bi, r))
			}
			if got.Routed(bi, r) != want.Routed(bi, r) {
				t.Fatalf("block %d round %d: routed %v vs %v", bi, r, got.Routed(bi, r), want.Routed(bi, r))
			}
		}
		if got.RTTTracked(bi) != want.RTTTracked(bi) {
			t.Fatalf("block %d: rtt tracking differs", bi)
		}
		if want.RTTTracked(bi) {
			for r := 0; r < rounds; r++ {
				if got.RTT(bi, r) != want.RTT(bi, r) {
					t.Fatalf("block %d round %d: rtt %d vs %d", bi, r, got.RTT(bi, r), want.RTT(bi, r))
				}
			}
		}
	}
	for r := 0; r < rounds; r++ {
		if got.Missing(r) != want.Missing(r) || got.Done(r) != want.Done(r) ||
			got.Coverage(r) != want.Coverage(r) {
			t.Fatalf("round %d: missing/done/coverage differ", r)
		}
	}
}

func TestV4FileRoundTrip(t *testing.T) {
	s := v4Store(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != 4 {
		t.Fatalf("written version = %d, want 4", v)
	}
	got, err := ReadFrom(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, s, got)
}

// TestUnsupportedVersionsRejected: v4 is the only layout read; the retired
// v1–v3 layouts and versions from the future fail at the header.
func TestUnsupportedVersionsRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := v4Store(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, v := range []uint32{1, 2, 3, 5} {
		binary.LittleEndian.PutUint32(raw[4:8], v)
		_, err := ReadFrom(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("version %d: err = %v, want unsupported version", v, err)
		}
	}
}

// respSectionOffsets locates the v4 column index and blob inside a written
// file, mirroring the reader's offset math.
func respSectionOffsets(raw []byte, nblocks, rounds int) (lensStart, blobStart int) {
	words := (rounds + 63) / 64
	pos := 4 + 4 + 8 + 8 + 4 + 4 // magic, version, start, interval, rounds, nblocks
	pos += 4 * nblocks           // block IDs
	pos += 8 * words * 2         // missing + done bitsets
	npartial := int(binary.LittleEndian.Uint32(raw[pos:]))
	pos += 4 + 6*npartial
	return pos, pos + 4*nblocks
}

// TestCorruptColumnRejected: a column that cannot decode to exactly one row
// fails the open — it must never read as an all-zero block, which the
// detectors would take for an outage. So does a file cut inside the blob.
func TestCorruptColumnRejected(t *testing.T) {
	s := v4Store(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	lensStart, blobStart := respSectionOffsets(raw, s.NumBlocks(), s.tl.NumRounds())
	if _, err := ReadFrom(bytes.NewReader(raw[:blobStart+10])); err == nil {
		t.Fatal("ReadFrom accepted a file truncated inside the blob")
	}
	colLen := int(binary.LittleEndian.Uint32(raw[lensStart:]))
	if colLen == 0 {
		t.Fatal("first column unexpectedly empty")
	}
	// An all-0xFF column can never decode to exactly `rounds` bytes: each
	// control/operand pair emits a 129-run, and a trailing control byte
	// without its operand is itself corrupt.
	for i := 0; i < colLen; i++ {
		raw[blobStart+i] = 0xFF
	}
	if _, err := ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("ReadFrom accepted a corrupt column")
	}
}

func FuzzRLE(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5})
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{7}, 300))
	f.Add([]byte{0xFF, 0xFF, 0x80, 0x01, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Round-trip: every byte string survives encode/decode exactly, and
		// the encoding respects the documented worst-case bound (1 control
		// byte per 128 literals).
		enc := rleAppend(nil, data)
		if max := len(data) + (len(data)+maxLiteralChunk-1)/maxLiteralChunk; len(enc) > max {
			t.Fatalf("encoded %d bytes to %d, worst-case bound %d", len(data), len(enc), max)
		}
		dec := make([]byte, len(data))
		if err := rleDecode(dec, enc); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round-trip mismatch: %v → %v → %v", data, enc, dec)
		}
		// Adversarial: the same bytes treated as an encoded stream must
		// either fill the target exactly or be rejected — never panic,
		// never report success on a partial fill.
		dst := make([]byte, 257)
		if err := rleDecode(dst, data); err == nil && len(data) == 0 {
			t.Fatal("empty stream claimed to fill a 257-byte row")
		}
	})
}

// wordBoundaryColumns are the column shapes at the coder's word edges:
// runs of 2, 3, 8, 9, 129 and 130 equal cells starting at every offset mod
// 8 after a literal head; literal stretches of 127, 128 and 129 cells;
// ramps of a nonzero step, two of them wrapping from 255 to 0; and a
// plateau whose zero tail starts at every offset mod 8.
func wordBoundaryColumns() [][]byte {
	// lit(k) is a stretch of k cells whose deltas all differ: no run.
	lit := func(k int) []byte {
		b := make([]byte, k)
		for i := range b {
			b[i] = byte(7 * i * (i + 1) / 2)
		}
		return b
	}
	var cols [][]byte
	for _, l := range []int{2, 3, 8, 9, 129, 130} {
		for off := range 8 {
			c := append(lit(off+1), bytes.Repeat([]byte{200}, l)...)
			cols = append(cols, append(c, 3, 1, 4, 1, 5))
		}
	}
	for _, k := range []int{127, 128, 129} {
		cols = append(cols, lit(k), append(lit(k), bytes.Repeat([]byte{9}, 12)...))
	}
	for _, r := range []struct{ from, step, n int }{{0, 1, 40}, {250, 1, 20}, {240, 3, 30}, {100, 255, 140}} {
		c := make([]byte, r.n)
		for i := range c {
			c[i] = byte(r.from + i*r.step)
		}
		cols = append(cols, c)
	}
	for off := range 8 {
		cols = append(cols, append(bytes.Repeat([]byte{60}, 16+off), make([]byte, 20)...))
	}
	return cols
}

func FuzzColumnV4(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 3, 4, 4, 5})
	f.Add(bytes.Repeat([]byte{42}, 500))
	f.Add([]byte{0xFF, 0x00, 0x80})
	for _, c := range wordBoundaryColumns() {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Round-trip through the v4 column coding (delta transform + RLE),
		// bounding the encoding by the reader's plausibility limit.
		enc := new(columnCoder).appendColumn(nil, data, len(data))
		if len(enc) > 2*len(data)+64 {
			t.Fatalf("encoded %d bytes to %d, beyond the reader's 2n+64 limit", len(data), len(enc))
		}
		dec := make([]byte, len(data))
		if err := deltaRLEDecode(dec, enc); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round-trip mismatch for %d bytes", len(data))
		}
		var scratch []byte
		if want := deltaRLEAppend(nil, data, &scratch); !bytes.Equal(enc, want) {
			t.Fatalf("column %v: coded %v, reference %v", data, enc, want)
		}
		// Adversarial decode of arbitrary bytes must never panic and must
		// reject partial fills.
		dst := make([]byte, 100)
		_ = deltaRLEDecode(dst, data)
	})
}

// FuzzV4Column: the streamed column coder appends and counts exactly what
// the staged reference codes, for any column bytes followed by a zero tail
// of any length — the shape of a live campaign's column.
func FuzzV4Column(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0}, uint16(1))
	f.Add([]byte{5}, uint16(2))
	f.Add([]byte{9, 9}, uint16(3))
	f.Add([]byte{3, 3, 3, 4, 4, 5}, uint16(300))
	f.Add(bytes.Repeat([]byte{42}, 500), uint16(129))
	f.Add([]byte{0xFF, 0x00, 0x80, 0x7F}, uint16(130))
	for i, c := range wordBoundaryColumns() {
		f.Add(c, uint16(i%9))
		f.Add(c, uint16(127+i%5))
	}
	f.Fuzz(func(t *testing.T, data []byte, tail uint16) {
		assertColumnMatchesReference(t, append(data[:len(data):len(data)], make([]byte, tail%1024)...), len(data))
	})
}

// assertColumnMatchesReference checks appendColumn onto a non-empty dst
// against the staged deltaRLEAppend: given the whole column, and given only
// its first zeroFrom cells and one zero cell more, every cell from zeroFrom
// on being zero. The coder's delta row starts out holding stale bytes, as a
// pooled one does.
func assertColumnMatchesReference(t *testing.T, src []byte, zeroFrom int) {
	t.Helper()
	var scratch []byte
	want := deltaRLEAppend([]byte{0xAB}, src, &scratch)
	cc := &columnCoder{d: bytes.Repeat([]byte{0xA5}, len(src)+8)}
	for _, prefix := range []int{len(src), min(len(src), zeroFrom+1)} {
		if got := cc.appendColumn([]byte{0xAB}, src[:prefix], len(src)); !bytes.Equal(got, want) {
			t.Fatalf("column %v from a %d-cell prefix: coded %v, reference %v", src, prefix, got, want)
		}
	}
}

// TestColumnMatchesReference drives the coder differential over seeded
// heads — runs, literals and mixes of both, ending on every kind of last
// cell — each followed by zero tails of 0–260 bytes, which cover a pending
// literal meeting the tail, tails of one and two bytes and tails that split
// at the 129-byte maximum run.
func TestColumnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for c := 0; c < 240; c++ {
		head := make([]byte, rng.Intn(300))
		for i := range head {
			switch c % 4 {
			case 0: // plateaus with steps: runs
				if i == 0 || rng.Intn(9) == 0 {
					head[i] = byte(rng.Intn(6))
				} else {
					head[i] = head[i-1]
				}
			case 1: // literals
				head[i] = byte(rng.Intn(256))
			case 2: // a small alphabet: short runs among literals
				head[i] = byte(rng.Intn(3))
			default: // a ramp: constant nonzero deltas
				head[i] = byte(i * (c%5 + 1))
			}
		}
		for tail := 0; tail <= 260; tail++ {
			assertColumnMatchesReference(t, append(head[:len(head):len(head)], make([]byte, tail)...), len(head))
		}
	}
	// A noisy plateau the length of the paper's six-hourly timeline: about
	// half its cells in runs and half in literal chunks, as in a generated
	// three-year store.
	col := make([]byte, 4357)
	level := byte(60)
	for i := 0; i < len(col); {
		n := 1 + rng.Intn(16)
		if rng.Intn(2) == 0 {
			level = byte(40 + rng.Intn(40))
			for k := i; k < min(i+n, len(col)); k++ {
				col[k] = level
			}
		} else {
			for k := i; k < min(i+n, len(col)); k++ {
				col[k] = level + byte(rng.Intn(5))
			}
		}
		i += n
	}
	runCells, litCells := tokenCells(new(columnCoder).appendColumn(nil, col, len(col)))
	if share := float64(runCells) / float64(runCells+litCells); share < 0.35 || share > 0.65 {
		t.Fatalf("noisy plateau: %d cells in runs, %d in literals, want about half each", runCells, litCells)
	}
	for _, tail := range []int{0, 1, 2, 3, 7, 8, 9, 129, 130} {
		assertColumnMatchesReference(t, append(col[:len(col):len(col)], make([]byte, tail)...), len(col))
	}
}

// tokenCells returns how many cells a coded column's runs and literal chunks
// hold.
func tokenCells(coded []byte) (runs, literals int) {
	for i := 0; i < len(coded); {
		if c := int(coded[i]); c < 128 {
			literals += c + 1
			i += c + 2
		} else {
			runs += c - 128 + minRun
			i += 2
		}
	}
	return runs, literals
}

// FuzzDecodeMatchesRef: on any stream and output length, rleDecode and
// deltaRLEDecode write the bytes the byte-at-a-time oracle does, and accept
// or reject (errRLECorrupt) exactly the streams it does. Both start from a
// row of stale bytes, as ReadFrom's reused row does.
func FuzzDecodeMatchesRef(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{200}, uint16(10))
	f.Add([]byte{5, 1, 2}, uint16(10))
	f.Add([]byte{255, 7}, uint16(10))
	f.Add([]byte{0, 1}, uint16(10))
	f.Add([]byte{2, 1, 2, 3, 128 + 5, 5}, uint16(10))
	f.Add([]byte{128, 9, 128, 4, 1, 8, 1}, uint16(6))
	for i, c := range wordBoundaryColumns() {
		enc := new(columnCoder).appendColumn(nil, c, len(c))
		f.Add(enc, uint16(len(c)))
		f.Add(enc, uint16(len(c)+i%3-1))
	}
	f.Fuzz(func(t *testing.T, stream []byte, n uint16) {
		n %= 2048
		decoders := []struct {
			name      string
			got, want func(dst, src []byte) error
		}{
			{"rleDecode", rleDecode, refRLEDecode},
			{"deltaRLEDecode", deltaRLEDecode, refDeltaRLEDecode},
		}
		for _, dc := range decoders {
			got, want := bytes.Repeat([]byte{0xA5}, int(n)), bytes.Repeat([]byte{0xA5}, int(n))
			gotErr, wantErr := dc.got(got, stream), dc.want(want, stream)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && !errors.Is(gotErr, errRLECorrupt)) {
				t.Fatalf("%s of %v into %d bytes: err %v, oracle %v", dc.name, stream, n, gotErr, wantErr)
			}
			if gotErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s of %v: decoded %v, oracle %v", dc.name, stream, got, want)
			}
		}
	})
}

// liveStore is a campaign's store h rounds into a 300-round timeline: each
// block's history written (plateaus, literal-heavy rows, steps, rows that
// end on zeros), partial, missing and done rounds, two RTT-tracked blocks,
// and the rest of the timeline zero — except block 1, whose one nonzero
// cell is the final round; block 0 stays all zero.
func liveStore(t testing.TB, h int) *Store { return liveTwin(t, h).Store }

// liveTwin builds liveStore's cells into a Store and its planned-row oracle.
func liveTwin(t testing.TB, h int) *twin {
	t.Helper()
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(299*2*time.Hour), 2*time.Hour)
	blocks := make([]netmodel.BlockID, 70)
	for i := range blocks {
		blocks[i] = netmodel.BlockID(i)
	}
	s := newTwin(tl, blocks)
	s.SetRound(1, tl.NumRounds()-1, 9, true)
	s.TrackRTT(5)
	s.TrackRTT(68)
	for r := 0; r < h; r++ {
		for bi := 2; bi < len(blocks); bi++ {
			var v int
			switch bi % 4 {
			case 0:
				v = 60
			case 1:
				v = (bi*31 + r*7) % 97
			case 2:
				v = 40 + (r/9)%3
			default:
				v = (r % 3) * 2
			}
			s.SetRound(bi, r, v, (bi+r)%13 != 0)
		}
		s.SetRTT(5, r, uint16(20+r%40))
		s.SetRTT(68, r, uint16(30+r%25))
		switch {
		case r%41 == 40:
			s.SetMissing(r)
		case r%17 == 5:
			s.SetCoverage(r, 0.5)
		}
		s.SetDone(r)
	}
	return s
}

// testShapes are the stores the streamed writer and the journal records are
// checked on against the staged reference.
func testShapes(t *testing.T) map[string]*twin {
	t.Helper()
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(99*2*time.Hour), 2*time.Hour)
	one := newTwin(tl, []netmodel.BlockID{7})
	for r := 0; r < 60; r++ {
		one.SetRound(0, r, 3+r/20, true)
	}
	bench := newTwin(benchTimeline(), benchBlocks())
	fillBench(bench)
	shapes := map[string]*twin{
		"empty":      newTwin(tl, nil),
		"one block":  one,
		"v4Store":    v4Twin(t),
		"benchStore": bench,
	}
	for _, h := range []int{0, 1, 7, 8, 63, 64, 128, 129, 130, 299, 300} {
		shapes[fmt.Sprintf("live h=%d", h)] = liveTwin(t, h)
	}
	return shapes
}

// TestWriteToMatchesReference: the streamed writer's file — and the count
// it returns — is byte for byte the staged writer's, on every shape.
func TestWriteToMatchesReference(t *testing.T) {
	for name, s := range testShapes(t) {
		var got, want bytes.Buffer
		n, err := s.WriteTo(&got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := s.ref.writeTo(&want); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteTo wrote %d bytes, the staged reference %d, and they differ", name, got.Len(), want.Len())
		}
		if n != int64(got.Len()) {
			t.Fatalf("%s: WriteTo returned %d for %d bytes", name, n, got.Len())
		}
	}
}

// TestRoundLogRecordMatchesReference: a journal record is byte for byte the
// one the staged coder built, for every round of every shape (every 97th
// round of benchStore).
func TestRoundLogRecordMatchesReference(t *testing.T) {
	for name, s := range testShapes(t) {
		l := &RoundLog{rounds: s.tl.NumRounds(), nblocks: s.NumBlocks(), col: make([]uint8, s.NumBlocks())}
		step := 1
		if name == "benchStore" {
			step = 97
		}
		for r := 0; r < s.tl.NumRounds(); r += step {
			if got, want := l.record(nil, s.Store, r), refRecord(s.ref, r); !bytes.Equal(got, want) {
				t.Fatalf("%s round %d: record %d bytes, the staged reference %d, and they differ", name, r, len(got), len(want))
			}
		}
	}
}
