package dataset

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
)

// naiveExtent is Extent one round at a time: the oracle of the word-wise
// backward scan.
func naiveExtent(s *Store, bi int) int {
	for r := s.tl.NumRounds(); r > 0; r-- {
		if s.Resp(bi, r-1) != 0 || s.Routed(bi, r-1) {
			return r
		}
	}
	return 0
}

// assertExtents checks every block's Extent against the oracle.
func assertExtents(t *testing.T, label string, s *Store) {
	t.Helper()
	for bi := 0; bi < s.NumBlocks(); bi++ {
		if got, want := s.Extent(bi), naiveExtent(s, bi); got != want {
			t.Fatalf("%s: block %d: Extent = %d, naive scan %d", label, bi, got, want)
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
			if got := s.Extent(0); got != c.want {
				t.Fatalf("Extent = %d, want %d", got, c.want)
			}
			if got := s.Extent(1); got != 0 {
				t.Fatalf("untouched block: Extent = %d, want 0", got)
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
			if e := got.Extent(bi); e != want {
				t.Fatalf("block %d: Extent = %d, want %d", bi, e, want)
			}
		}
		assertExtents(t, "ReadFrom", got)
	})

	// ReadFrom copies routed words verbatim, so a corrupt file can set the
	// last word's bits past the final round: Extent must still stay a
	// valid loop bound.
	t.Run("padding bits", func(t *testing.T) {
		s := testStore(t)
		if (last+1)%64 == 0 {
			t.Fatal("test timeline fills its last routed word: no padding to set")
		}
		words := s.routed[0]
		words[len(words)-1] |= 1 << 63
		if got := s.Extent(0); got != last+1 {
			t.Fatalf("Extent = %d, want %d (clamped to the column)", got, last+1)
		}
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
			if got, want := dst.Extent(bi), src.Extent(bi); got != want {
				t.Fatalf("block %d: replayed Extent = %d, source %d", bi, got, want)
			}
		}
		assertExtents(t, "ReplayRoundLog", dst)
	})
}

// FuzzExtent drives a two-block store through arbitrary SetRound sequences
// — counts and routed bits set and cleared anywhere on a timeline of 1–300
// rounds — and compares Extent with the one-round-at-a-time scan.
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
