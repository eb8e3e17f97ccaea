package dataset

import (
	"bytes"
	"io"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
)

// benchStore builds a store of realistic shape: a year of 2-hour rounds over
// a few thousand blocks, a slice of them RTT-tracked, with varied resp rows
// so the RLE coder does real work.
func benchStore(tb testing.TB) *Store {
	return benchStoreHistory(tb, -1)
}

// benchStoreHistory is benchStore with only the first history rounds written
// (all of them when history < 0): a campaign that far in.
func benchStoreHistory(tb testing.TB, history int) *Store {
	tb.Helper()
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(1, 0, 0), 2*time.Hour)
	if history < 0 {
		history = tl.NumRounds()
	}
	blocks := make([]netmodel.BlockID, 2048)
	for i := range blocks {
		blocks[i] = netmodel.BlockID(i)
	}
	s := NewStore(tl, blocks)
	for bi := range blocks {
		for r := 0; r < history; r++ {
			s.SetRound(bi, r, (bi*31+r*7)%97, r%3 != 0)
		}
		if bi%16 == 0 {
			s.TrackRTT(bi)
			for r := 0; r < history; r++ {
				s.SetRTT(bi, r, uint16(20+(bi+r)%40))
			}
		}
	}
	return s
}

func BenchmarkStoreWriteTo(b *testing.B) {
	benchmarkWriteTo(b, benchStore(b))
}

// BenchmarkStoreWriteToLive writes the Monitor's checkpoint shape: a month
// of history, then the rest of the year's columns still zero.
func BenchmarkStoreWriteToLive(b *testing.B) {
	benchmarkWriteTo(b, benchStoreHistory(b, 31*12)) // March 2022
}

func benchmarkWriteTo(b *testing.B, s *Store) {
	var buf bytes.Buffer
	s.WriteTo(&buf)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreReadFrom(b *testing.B) {
	s := benchStore(b)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
