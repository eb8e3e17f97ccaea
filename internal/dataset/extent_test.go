package dataset

import (
	"bytes"
	"fmt"
	"math/bits"
	"path/filepath"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
)

// A block's extent is one past the last round in which it has a nonzero
// count or routed bit (0 for an empty column). The tests below find it two
// ways — through the per-segment walk the series builders take (Segment),
// and one round at a time through Resp and Routed — and hold the two to each
// other at every segment edge, after a round trip through a file and a
// journal, and over fuzzed writes.

// segmentExtent is a block's extent found through Segment, backward from
// the last segment over the SegmentLen rounds of each: an unwritten segment
// is all zero.
func segmentExtent(s *Store, bi int) int {
	for k := s.NumSegments() - 1; k >= 0; k-- {
		resp, routed := s.Segment(k)
		if resp == nil {
			continue
		}
		n := s.SegmentLen(k)
		e := byteExtent(resp[bi*SegmentRounds:][:n])
		if w := routed[bi] << (64 - n) >> (64 - n); w != 0 { // the bits of the n rounds
			e = max(e, 64-bits.LeadingZeros64(w))
		}
		if e > 0 {
			return k*SegmentRounds + e
		}
	}
	return 0
}

// naiveExtent is a block's extent one round at a time.
func naiveExtent(s *Store, bi int) int {
	for r := s.tl.NumRounds(); r > 0; r-- {
		if s.Resp(bi, r-1) != 0 || s.Routed(bi, r-1) {
			return r
		}
	}
	return 0
}

// assertExtents checks every block's extent through Segment against the
// round-by-round scan, and every cell Segment returns against Resp and
// Routed: a segment's cells are nil only when all of them read zero, and
// otherwise hold a row of SegmentRounds counts and one routed word for
// every block; SegmentLen counts the timeline's rounds among them.
func assertExtents(t *testing.T, label string, s *Store) {
	t.Helper()
	rounds := s.tl.NumRounds()
	for k := range s.NumSegments() {
		lo := k * SegmentRounds
		if n := s.SegmentLen(k); n != min(SegmentRounds, rounds-lo) {
			t.Fatalf("%s: segment %d: SegmentLen %d, want %d", label, k, n, min(SegmentRounds, rounds-lo))
		}
		resp, routed := s.Segment(k)
		if (resp == nil) != (routed == nil) || resp != nil && (len(resp) != s.NumBlocks()*SegmentRounds || len(routed) != s.NumBlocks()) {
			t.Fatalf("%s: segment %d: %d counts and %d routed words for %d blocks", label, k, len(resp), len(routed), s.NumBlocks())
		}
	}
	for bi := 0; bi < s.NumBlocks(); bi++ {
		if got, want := segmentExtent(s, bi), naiveExtent(s, bi); got != want {
			t.Fatalf("%s: block %d: extent through Segment = %d, naive scan %d", label, bi, got, want)
		}
		for k := range s.NumSegments() {
			resp, routed := s.Segment(k)
			lo := k * SegmentRounds
			for j := range s.SegmentLen(k) {
				var c int
				var r bool
				if resp != nil {
					c, r = int(resp[bi*SegmentRounds+j]), routed[bi]>>j&1 == 1
				}
				if c != s.Resp(bi, lo+j) || r != s.Routed(bi, lo+j) {
					t.Fatalf("%s: block %d round %d: Segment reads (%d, %v), Resp/Routed (%d, %v)",
						label, bi, lo+j, c, r, s.Resp(bi, lo+j), s.Routed(bi, lo+j))
				}
			}
		}
	}
}

func TestExtent(t *testing.T) {
	last := testTimeline().NumRounds() - 1
	if last < 130 {
		t.Fatalf("test timeline has %d rounds; the table needs three routed words", last+1)
	}
	type tc struct {
		name  string
		write func(s *Store)
		want  int
	}
	cases := []tc{{name: "empty", write: func(*Store) {}, want: 0}}
	for _, r := range []int{0, 7, 8, 63, 64, 65, last} {
		cases = append(cases, tc{
			name:  fmt.Sprintf("count@%d", r),
			write: func(s *Store) { s.SetRound(0, r, 3, false) },
			want:  r + 1,
		})
	}
	for _, r := range []int{63, 64, 65, last} {
		cases = append(cases, tc{
			name:  fmt.Sprintf("routed@%d", r),
			write: func(s *Store) { s.SetRound(0, r, 0, true) },
			want:  r + 1,
		})
	}
	cases = append(cases,
		tc{
			name: "routed below last count",
			write: func(s *Store) {
				s.SetRound(0, 10, 0, true)
				s.SetRound(0, 100, 1, false)
			},
			want: 101,
		},
		tc{
			name: "routed above last count",
			write: func(s *Store) {
				s.SetRound(0, 10, 1, false)
				s.SetRound(0, 100, 0, true)
			},
			want: 101,
		},
		tc{
			// The routed word holding the last count is scanned too.
			name: "routed just past last count",
			write: func(s *Store) {
				s.SetRound(0, 70, 1, false)
				s.SetRound(0, 71, 0, true)
			},
			want: 72,
		},
		tc{
			name: "set then cleared",
			write: func(s *Store) {
				s.SetRound(0, 70, 5, true)
				s.SetRound(0, 70, 0, false)
			},
			want: 0,
		},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testStore(t)
			c.write(s)
			if got := segmentExtent(s, 0); got != c.want {
				t.Fatalf("extent = %d, want %d", got, c.want)
			}
			if got := segmentExtent(s, 1); got != 0 {
				t.Fatalf("untouched block: extent = %d, want 0", got)
			}
			assertExtents(t, c.name, s)
		})
	}

	t.Run("ReadFrom", func(t *testing.T) {
		s := testStore(t)
		for r := 0; r < 40; r++ {
			s.SetRound(0, r, r%4, r%3 != 0)
			s.SetRound(2, r, 1, false)
		}
		s.SetRound(0, 130, 0, true) // a routed bit far past the last count
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for bi, want := range []int{131, 0, 40} {
			if e := segmentExtent(got, bi); e != want {
				t.Fatalf("block %d: extent = %d, want %d", bi, e, want)
			}
		}
		assertExtents(t, "ReadFrom", got)
	})

	// ReadFrom copies routed words verbatim, so a corrupt file can set the
	// last word's bits past the final round: a walk over SegmentLen rounds
	// must not take them for rounds, or it would run off the end of the
	// timeline.
	t.Run("padding bits", func(t *testing.T) {
		s := testStore(t)
		if (last+1)%64 == 0 {
			t.Fatal("test timeline fills its last routed word: no padding to set")
		}
		s.writable(s.NumSegments() - 1).routed[0] |= 1 << 63
		if got := segmentExtent(s, 0); got != 0 {
			t.Fatalf("extent = %d, want 0 (the padding bit is past the timeline)", got)
		}
		assertExtents(t, "padding bits", s)
	})

	t.Run("ReplayRoundLog", func(t *testing.T) {
		src := roundLogStore(t)
		path := filepath.Join(t.TempDir(), "rounds.cmrl")
		l, err := OpenRoundLog(path, src)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 10; r++ {
			logRound(t, l, src, r, 0)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		dst := roundLogStore(t)
		if _, err := ReplayRoundLog(dst, path); err != nil {
			t.Fatal(err)
		}
		for bi := 0; bi < src.NumBlocks(); bi++ {
			if got, want := segmentExtent(dst, bi), segmentExtent(src, bi); got != want {
				t.Fatalf("block %d: replayed extent = %d, source %d", bi, got, want)
			}
		}
		assertExtents(t, "ReplayRoundLog", dst)
	})
}

// FuzzExtent drives a two-block store through arbitrary SetRound sequences
// — counts and routed bits set and cleared anywhere on a timeline of 1–300
// rounds — and compares the extent through Segment with the
// one-round-at-a-time scan.
func FuzzExtent(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(130), []byte{0, 63, 1, 0, 64, 2, 0, 65, 0})
	f.Add(uint16(299), []byte{1, 43, 7, 0, 7, 6, 0, 7, 0})
	f.Add(uint16(64), []byte{0, 64, 1})
	f.Fuzz(func(t *testing.T, n uint16, ops []byte) {
		rounds := 1 + int(n)%300
		start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
		tl := timeline.New(start, start.Add(time.Duration(rounds-1)*6*time.Hour), 6*time.Hour)
		s := NewStore(tl, []netmodel.BlockID{1, 2})
		// Each op is three bytes: block and round-high bits, round-low bits,
		// and the value (count in the top seven bits, routedness in bit 0).
		for ; len(ops) >= 3; ops = ops[3:] {
			bi := int(ops[0] & 1)
			r := (int(ops[0]>>1)<<8 | int(ops[1])) % rounds
			s.SetRound(bi, r, int(ops[2]>>1), ops[2]&1 == 1)
		}
		assertExtents(t, "fuzz", s)
	})
}
