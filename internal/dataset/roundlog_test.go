package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
)

func roundLogStore(t testing.TB) *Store {
	t.Helper()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.Add(49*2*time.Hour), 2*time.Hour)
	blocks := make([]netmodel.BlockID, 70) // two routed words per round
	for i := range blocks {
		blocks[i] = netmodel.BlockID(i)
	}
	return NewStore(tl, blocks)
}

// logRound writes one synthetic round into s and journals it.
func logRound(t *testing.T, l *RoundLog, s *Store, r, salt int) {
	t.Helper()
	for bi := 0; bi < s.NumBlocks(); bi++ {
		s.SetRound(bi, r, (bi*7+r+salt)%11, (bi+r+salt)%5 != 0)
	}
	if r%7 == 3 {
		s.SetCoverage(r, 0.6)
	}
	s.SetDone(r)
	if err := l.Append(s, r); err != nil {
		t.Fatalf("append %d: %v", r, err)
	}
}

func assertRoundEqual(t *testing.T, want, got *Store, r int) {
	t.Helper()
	for bi := 0; bi < want.NumBlocks(); bi++ {
		if got.Resp(bi, r) != want.Resp(bi, r) || got.Routed(bi, r) != want.Routed(bi, r) {
			t.Fatalf("round %d block %d: (%d,%v) vs (%d,%v)", r, bi,
				got.Resp(bi, r), got.Routed(bi, r), want.Resp(bi, r), want.Routed(bi, r))
		}
	}
	if got.Missing(r) != want.Missing(r) || got.Done(r) != want.Done(r) ||
		got.Coverage(r) != want.Coverage(r) {
		t.Fatalf("round %d: missing/done/coverage (%v,%v,%g) vs (%v,%v,%g)", r,
			got.Missing(r), got.Done(r), got.Coverage(r),
			want.Missing(r), want.Done(r), want.Coverage(r))
	}
}

func TestRoundLogAppendReplay(t *testing.T) {
	src := roundLogStore(t)
	path := filepath.Join(t.TempDir(), "rounds.cmrl")
	l, err := OpenRoundLog(path, src)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		logRound(t, l, src, r, 0)
	}
	// A vantage-outage round journals too.
	src.SetMissing(10)
	if err := l.Append(src, 10); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	dst := roundLogStore(t)
	applied, err := ReplayRoundLog(dst, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 11 {
		t.Fatalf("applied %d rounds, want 11", len(applied))
	}
	for r := 0; r <= 10; r++ {
		assertRoundEqual(t, src, dst, r)
	}
	if dst.NextUndone() != 11 {
		t.Fatalf("NextUndone = %d, want 11", dst.NextUndone())
	}
}

func TestRoundLogReopenAppendsAndDuplicateWins(t *testing.T) {
	src := roundLogStore(t)
	path := filepath.Join(t.TempDir(), "rounds.cmrl")
	l, err := OpenRoundLog(path, src)
	if err != nil {
		t.Fatal(err)
	}
	logRound(t, l, src, 0, 0)
	logRound(t, l, src, 1, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the header is validated, appends continue at the tail. Round
	// 1 is re-journaled with different data — replay must keep the last.
	l, err = OpenRoundLog(path, src)
	if err != nil {
		t.Fatal(err)
	}
	logRound(t, l, src, 1, 99)
	logRound(t, l, src, 2, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	dst := roundLogStore(t)
	applied, err := ReplayRoundLog(dst, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 4 {
		t.Fatalf("applied %d records, want 4", len(applied))
	}
	for r := 0; r <= 2; r++ {
		assertRoundEqual(t, src, dst, r)
	}
}

// TestRoundLogDuplicateCoverageLastWins re-journals the same round with a
// different salvaged coverage each time: replay's last-wins rule must apply
// to coverage exactly as it does to block data, so a rescan that achieved a
// different coverage is what signal derivation gates on after recovery.
func TestRoundLogDuplicateCoverageLastWins(t *testing.T) {
	src := roundLogStore(t)
	path := filepath.Join(t.TempDir(), "rounds.cmrl")
	l, err := OpenRoundLog(path, src)
	if err != nil {
		t.Fatal(err)
	}
	journal := func(cov float64) {
		for bi := 0; bi < src.NumBlocks(); bi++ {
			src.SetRound(bi, 0, bi%11, true)
		}
		src.SetCoverage(0, cov)
		src.SetDone(0)
		if err := l.Append(src, 0); err != nil {
			t.Fatal(err)
		}
	}
	journal(1.0)
	journal(0.6)
	journal(0.35)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	dst := roundLogStore(t)
	applied, err := ReplayRoundLog(dst, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 3 || applied[0] != 0 || applied[1] != 0 || applied[2] != 0 {
		t.Fatalf("applied = %v, want [0 0 0]", applied)
	}
	// The last record's coverage landed, through the fixed-point encoding.
	last := 0.35
	want := float64(uint16(last*65535+0.5)) / 65535
	if got := dst.Coverage(0); got != want {
		t.Fatalf("Coverage(0) = %g, want %g", got, want)
	}
	// And it is the value the signal pipeline's gate sees.
	if !dst.EffectiveMissingAt(0, 0.5) {
		t.Fatal("round with replayed 0.35 coverage passes a 0.5 gate")
	}
	if dst.EffectiveMissingAt(0, 0.3) {
		t.Fatal("round with replayed 0.35 coverage fails a 0.3 gate")
	}
}

func TestRoundLogTruncatedTailTolerated(t *testing.T) {
	src := roundLogStore(t)
	path := filepath.Join(t.TempDir(), "rounds.cmrl")
	l, err := OpenRoundLog(path, src)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		logRound(t, l, src, r, 0)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a partial record at the tail; replay must
	// apply everything before it and stop silently.
	for _, cut := range []int{1, 9, 40} {
		trunc := filepath.Join(t.TempDir(), "trunc.cmrl")
		if err := os.WriteFile(trunc, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		dst := roundLogStore(t)
		applied, err := ReplayRoundLog(dst, trunc)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(applied) != 4 {
			t.Fatalf("cut %d: applied %d rounds, want 4", cut, len(applied))
		}
		for r := 0; r < 4; r++ {
			assertRoundEqual(t, src, dst, r)
		}
	}
}

// TestRoundLogTornTailTrimmedOnReopen tears the final record at every
// possible length, then does what a restarted campaign does: replay, reopen,
// rescan the torn round and carry on. The reopened journal must drop the torn
// bytes before appending — otherwise the new record lands behind them and the
// next replay reads the two as one corrupt (or, with only a few bytes
// missing, silently spliced) record — and end byte-identical to a journal
// that never crashed.
func TestRoundLogTornTailTrimmedOnReopen(t *testing.T) {
	src := roundLogStore(t)
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.cmrl")
	l, err := OpenRoundLog(ref, src)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int // journal size after each record
	for r := 0; r < 5; r++ {
		logRound(t, l, src, r, 0)
		fi, err := os.Stat(ref)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, int(fi.Size()))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// The crash tears record 2; rounds 2, 3 and 4 follow the restart.
	whole, last := sizes[2], sizes[2]-sizes[1]
	for cut := 1; cut <= last; cut++ {
		path := filepath.Join(dir, "torn.cmrl")
		if err := os.WriteFile(path, want[:whole-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		dst := roundLogStore(t)
		applied, err := ReplayRoundLog(dst, path)
		if err != nil || len(applied) != 2 {
			t.Fatalf("cut %d: replay of the torn journal applied %v, err %v", cut, applied, err)
		}
		l, err := OpenRoundLog(path, dst)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		for r := 2; r < 5; r++ {
			logRound(t, l, dst, r, 0)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d: journal is %d bytes after the restart, an uninterrupted one %d: torn tail not trimmed",
				cut, len(got), len(want))
		}
		again := roundLogStore(t)
		applied, err = ReplayRoundLog(again, path)
		if err != nil || len(applied) != 5 {
			t.Fatalf("cut %d: second replay applied %v, err %v", cut, applied, err)
		}
		for r := 0; r < 5; r++ {
			assertRoundEqual(t, src, again, r)
		}
	}
}

func TestRoundLogValidation(t *testing.T) {
	src := roundLogStore(t)
	dir := t.TempDir()

	// Empty file: created but never written — an empty journal, not an error.
	empty := filepath.Join(dir, "empty.cmrl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if applied, err := ReplayRoundLog(src, empty); err != nil || len(applied) != 0 {
		t.Fatalf("empty journal: applied=%v err=%v", applied, err)
	}

	// Dimension mismatch is rejected at open and at replay.
	path := filepath.Join(dir, "rounds.cmrl")
	l, err := OpenRoundLog(path, src)
	if err != nil {
		t.Fatal(err)
	}
	logRound(t, l, src, 0, 0)
	if err := l.Append(src, src.Timeline().NumRounds()); err == nil {
		t.Fatal("out-of-range append accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	other := NewStore(src.Timeline(), src.Blocks()[:32])
	if _, err := OpenRoundLog(path, other); err == nil {
		t.Fatal("mismatched store accepted at open")
	}
	if _, err := ReplayRoundLog(other, path); err == nil {
		t.Fatal("mismatched store accepted at replay")
	}

	// Garbage header.
	bad := filepath.Join(dir, "bad.cmrl")
	if err := os.WriteFile(bad, bytes.Repeat([]byte{0xEE}, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayRoundLog(src, bad); err == nil {
		t.Fatal("garbage journal accepted")
	}
}
