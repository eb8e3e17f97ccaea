package dataset

import (
	"bytes"
	"encoding/binary"
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

func FuzzColumnV4(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 3, 4, 4, 5})
	f.Add(bytes.Repeat([]byte{42}, 500))
	f.Add([]byte{0xFF, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Round-trip through the v4 column coding (delta transform + RLE),
		// bounding the encoding by the reader's plausibility limit.
		enc := appendColumn(nil, data, len(data))
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
	f.Fuzz(func(t *testing.T, data []byte, tail uint16) {
		assertColumnMatchesReference(t, append(data[:len(data):len(data)], make([]byte, tail%1024)...), len(data))
	})
}

// assertColumnMatchesReference checks appendColumn onto a non-empty dst
// against the staged deltaRLEAppend: given the whole column, and given only
// its first zeroFrom cells and one zero cell more, every cell from zeroFrom
// on being zero.
func assertColumnMatchesReference(t *testing.T, src []byte, zeroFrom int) {
	t.Helper()
	var scratch []byte
	want := deltaRLEAppend([]byte{0xAB}, src, &scratch)
	for _, prefix := range []int{len(src), min(len(src), zeroFrom+1)} {
		if got := appendColumn([]byte{0xAB}, src[:prefix], len(src)); !bytes.Equal(got, want) {
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
