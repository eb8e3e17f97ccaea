package dataset

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/timeline"
)

// assertMatchesOracle holds every read of s to the planned-row oracle's:
// each cell's Resp, Routed and RTT, each block-month's MonthStats and
// eligibility, and the bytes WriteTo writes.
func assertMatchesOracle(t *testing.T, label string, s *Store, ref *refStore) {
	t.Helper()
	rounds := s.tl.NumRounds()
	for bi := range s.NumBlocks() {
		for r := range rounds {
			if s.Resp(bi, r) != ref.Resp(bi, r) || s.Routed(bi, r) != ref.Routed(bi, r) || s.RTT(bi, r) != ref.RTT(bi, r) {
				t.Fatalf("%s: block %d round %d: (%d, %v, %d), oracle (%d, %v, %d)", label, bi, r,
					s.Resp(bi, r), s.Routed(bi, r), s.RTT(bi, r), ref.Resp(bi, r), ref.Routed(bi, r), ref.RTT(bi, r))
			}
		}
		for m := range s.tl.NumMonths() {
			if got, want := s.MonthStats(bi, m), ref.MonthStats(bi, m); got != want {
				t.Fatalf("%s: block %d month %d: MonthStats %+v, oracle %+v", label, bi, m, got, want)
			}
			if s.EligibleFBS(bi, m, 3) != ref.EligibleFBS(bi, m, 3) {
				t.Fatalf("%s: block %d month %d: EligibleFBS differs from the oracle", label, bi, m)
			}
			e, ind := s.EligibleTrinocular(bi, m)
			if we, wind := ref.EligibleTrinocular(bi, m); e != we || ind != wind {
				t.Fatalf("%s: block %d month %d: EligibleTrinocular (%v, %v), oracle (%v, %v)", label, bi, m, e, ind, we, wind)
			}
		}
	}
	var got, want bytes.Buffer
	if _, err := s.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.writeTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: WriteTo wrote %d bytes, the oracle %d, and they differ", label, got.Len(), want.Len())
	}
}

// TestStoreMatchesPlannedRowOracle: a segmented store written with seeded
// random cells reads, aggregates and writes exactly as the planned-row store
// it replaced, and so does the store ReadFrom makes of its file, which holds
// only the segments with a nonzero cell. The cells land on round 0, rounds
// 63 and 64, the last planned round and every month's first and last round,
// and at random; some rounds are missing or partial, one is written all
// zero in a segment nothing else touches, one segment is written only in
// its first half, two blocks are RTT-tracked and one round comes from a
// packet scan.
func TestStoreMatchesPlannedRowOracle(t *testing.T) {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(1000*2*time.Hour), 2*time.Hour) // 1 001 rounds: the last segment is partial
	last := tl.NumRounds() - 1
	blocks := make([]netmodel.BlockID, 70) // more blocks than a routed word has bits
	for i := range blocks {
		blocks[i] = netmodel.BlockID(i * 5)
	}
	edges := []int{0, 63, 64, last}
	for m := range tl.NumMonths() {
		lo, hi := tl.MonthRounds(m)
		edges = append(edges, lo, hi-1)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newTwin(tl, blocks)
		s.TrackRTT(3)
		s.TrackRTT(69)
		cell := func(bi, r int) {
			resp := 0
			if rng.Intn(4) > 0 {
				resp = rng.Intn(300) - 20 // clamped at both ends
			}
			s.SetRound(bi, r, resp, rng.Intn(3) == 0)
			s.SetRTT(bi, r, uint16(rng.Intn(3)*(20+rng.Intn(90))))
		}
		for _, r := range edges {
			for bi := range blocks {
				cell(bi, r)
			}
		}
		// Segments 7 and 14 are left to the all-zero round and the cleared
		// cell below.
		for range 400 {
			if r := rng.Intn(tl.NumRounds()); r>>6 != 7 && r>>6 != 14 {
				cell(rng.Intn(len(blocks)), r)
			}
		}
		// A segment written only in its first half.
		for r := 640; r < 672; r++ {
			for bi := range blocks {
				cell(bi, r)
			}
		}
		// An all-zero round in a segment nothing else writes.
		for bi := range blocks {
			s.SetRound(bi, 450, 0, false)
			s.SetRTT(bi, 450, 0)
		}
		for range 12 {
			s.SetMissing(rng.Intn(tl.NumRounds()))
			s.SetCoverage(rng.Intn(tl.NumRounds()), rng.Float64())
			s.SetDone(rng.Intn(tl.NumRounds()))
		}
		// A cell set and cleared again in a segment nothing else writes.
		s.SetRound(5, 900, 7, true)
		s.SetRound(5, 900, 0, false)

		rd := &scanner.RoundData{Blocks: []scanner.BlockResult{
			{Block: blocks[3], RespCount: 40, RTTSum: 90 * time.Millisecond, RTTCount: 2},
			{Block: blocks[10], RespCount: 999},
			{Block: blocks[11]},
			{Block: 1 << 30, RespCount: 5}, // not in the store
		}}
		s.AddRoundData(300, rd)

		assertMatchesOracle(t, "written", s.Store, s.ref)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracle(t, "ReadFrom", got, s.ref)
		if n, want := got.heldSegments(), s.ref.nonzeroSegments(); n != want {
			t.Fatalf("seed %d: ReadFrom holds %d segments, %d have a nonzero cell", seed, n, want)
		}
		// The all-zero round allocated nothing; the cleared cell's segment
		// is held, all zero, and ReadFrom drops it.
		if s.segs[7] != nil || s.segs[14] == nil || got.segs[14] != nil {
			t.Fatalf("seed %d: segment 7 held %v, segment 14 held %v and after ReadFrom %v; want false, true, false",
				seed, s.segs[7] != nil, s.segs[14] != nil, got.segs[14] != nil)
		}
		if n, want := s.heldSegments(), s.ref.nonzeroSegments()+1; n != want {
			t.Fatalf("seed %d: the written store holds %d segments, want %d", seed, n, want)
		}
	}
}

// TestNewStoreAllocatesNoRounds: a store over a year of two-hourly rounds
// costs O(blocks) bytes until rounds are written — a few bytes a round for
// the missing, done and coverage columns and the segment table, and no
// cells — and then holds ⌈written/64⌉ segments for the rounds written.
func TestNewStoreAllocatesNoRounds(t *testing.T) {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(4379*2*time.Hour), 2*time.Hour)
	if tl.NumRounds() != 4380 {
		t.Fatalf("timeline has %d rounds, want 4380", tl.NumRounds())
	}
	blocks := make([]netmodel.BlockID, 1000)
	for i := range blocks {
		blocks[i] = netmodel.BlockID(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewStore(tl, blocks)
	runtime.ReadMemStats(&after)
	// The planned-row store allocated 4 932 B a block here (a 4 380-byte
	// count row and 69 routed words); this one takes ≈ 61 KB in all, most
	// of it the block index.
	budget := uint64(64*len(blocks) + 8*tl.NumRounds())
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("NewStore of %d blocks × %d rounds allocated %d bytes, budget %d", len(blocks), tl.NumRounds(), got, budget)
	}
	if n := s.heldSegments(); n != 0 {
		t.Fatalf("a new store holds %d segments", n)
	}
	for _, written := range []int{1, 63, 64, 65, 375, 4380} {
		s := NewStore(tl, blocks)
		for r := range written {
			s.SetRound(r%len(blocks), r, 1, false)
		}
		if got, want := s.heldSegments(), (written+63)/64; got != want {
			t.Errorf("%d rounds written: %d segments held, want %d", written, got, want)
		}
	}
}

// TestReadOutOfRangePanics: Resp and Routed panic on a block index past the
// last block and on a round past the last planned round, as the planned-row
// store's rows did — in a segment never written as well as a written one,
// and on a round in the last segment's padding — instead of reading zero or
// a neighbouring block's cell.
func TestReadOutOfRangePanics(t *testing.T) {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(1000*2*time.Hour), 2*time.Hour) // 1 001 rounds: the last segment is partial
	s := NewStore(tl, []netmodel.BlockID{10, 20, 30})
	last := tl.NumRounds() - 1
	s.SetRound(2, 64, 7, true) // segment 1 written, segment 0 not
	s.SetRound(0, last, 1, true)
	reads := []struct {
		name string
		read func(bi, r int)
	}{
		{"Resp", func(bi, r int) { s.Resp(bi, r) }},
		{"Routed", func(bi, r int) { s.Routed(bi, r) }},
	}
	cases := []struct {
		name      string
		block, at int
	}{
		{"block past the last, unwritten segment", s.NumBlocks(), 0},
		{"block past the last, written segment", s.NumBlocks(), 64},
		{"negative block, written segment", -1, 64},
		{"round past the last, in the last segment's padding", 0, last + 1},
		{"round past the last segment", 0, 64 * s.NumSegments()},
		{"negative round", 0, -1},
	}
	for _, rd := range reads {
		for _, c := range cases {
			t.Run(rd.name+"/"+c.name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d, %d) did not panic", rd.name, c.block, c.at)
					}
				}()
				rd.read(c.block, c.at)
			})
		}
	}
	// The reads in range still see what was written.
	if s.Resp(2, 64) != 7 || !s.Routed(2, 64) || s.Resp(0, last) != 1 || s.Resp(2, 0) != 0 {
		t.Fatal("in-range reads changed")
	}
}
