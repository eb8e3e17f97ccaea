package dataset

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCoverageDefaultsFull(t *testing.T) {
	s := testStore(t)
	for _, r := range []int{0, 1, s.Timeline().NumRounds() - 1} {
		if got := s.Coverage(r); got != 1 {
			t.Errorf("Coverage(%d) = %v, want 1 by default", r, got)
		}
	}
}

func TestSetCoverageClampsAndRoundtrips(t *testing.T) {
	s := testStore(t)
	s.SetCoverage(2, 0.5)
	if got := s.Coverage(2); math.Abs(got-0.5) > 1e-4 {
		t.Errorf("Coverage(2) = %v, want ≈0.5", got)
	}
	s.SetCoverage(3, -1)
	if got := s.Coverage(3); got != 0 {
		t.Errorf("negative coverage stored as %v", got)
	}
	s.SetCoverage(4, 2)
	if got := s.Coverage(4); got != 1 {
		t.Errorf("overflowing coverage stored as %v", got)
	}
}

func TestDoneCursor(t *testing.T) {
	s := testStore(t)
	if s.NextUndone() != 0 {
		t.Fatalf("fresh store NextUndone = %d", s.NextUndone())
	}
	s.SetDone(0)
	s.SetDone(1)
	if s.NextUndone() != 2 {
		t.Errorf("NextUndone = %d after 2 done rounds", s.NextUndone())
	}
	// Missing rounds count as handled: a resume must not rescan them.
	s.SetMissing(2)
	if !s.Done(2) {
		t.Error("SetMissing must mark the round done")
	}
	if s.NextUndone() != 3 {
		t.Errorf("NextUndone = %d after a missing round", s.NextUndone())
	}
	// A gap earlier than the frontier wins.
	s2 := testStore(t)
	s2.SetDone(0)
	s2.SetDone(5)
	if s2.NextUndone() != 1 {
		t.Errorf("NextUndone = %d, want first gap", s2.NextUndone())
	}
	// Complete campaign.
	s3 := testStore(t)
	for r := 0; r < s3.Timeline().NumRounds(); r++ {
		s3.SetDone(r)
	}
	if s3.NextUndone() != s3.Timeline().NumRounds() {
		t.Errorf("complete campaign NextUndone = %d", s3.NextUndone())
	}
}

func TestEffectiveMissing(t *testing.T) {
	s := testStore(t)
	s.SetMissing(1)
	s.SetCoverage(2, 0.5)  // below the 0.8 gate
	s.SetCoverage(3, 0.95) // above it
	em := s.EffectiveMissing(0.8)
	want := map[int]bool{0: false, 1: true, 2: true, 3: false, 4: false}
	for r, w := range want {
		if em[r] != w {
			t.Errorf("EffectiveMissing[%d] = %v, want %v", r, em[r], w)
		}
	}
	// minCoverage 0 gates nothing but true outages.
	em0 := s.EffectiveMissing(0)
	if em0[2] || !em0[1] {
		t.Error("minCoverage=0 must only flag real outages")
	}
	// The returned mask is a copy, not the store's internal slice.
	em[0] = true
	if s.Missing(0) {
		t.Error("EffectiveMissing leaked internal state")
	}
	// Out-of-range thresholds clamp instead of exploding.
	_ = s.EffectiveMissing(-3)
	_ = s.EffectiveMissing(7)
}

func TestSaveLoadDurabilityRoundtrip(t *testing.T) {
	s := testStore(t)
	s.SetRound(0, 4, 17, true)
	s.SetMissing(1)
	s.SetDone(0)
	s.SetDone(4)
	s.SetCoverage(4, 0.25)

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done(0) || !got.Done(1) || !got.Done(4) || got.Done(2) {
		t.Error("done bits lost in roundtrip")
	}
	if got.NextUndone() != 2 {
		t.Errorf("loaded NextUndone = %d, want 2", got.NextUndone())
	}
	if !got.Missing(1) {
		t.Error("missing flag lost")
	}
	if c := got.Coverage(4); math.Abs(c-0.25) > 1e-4 {
		t.Errorf("coverage lost: %v", c)
	}
	if c := got.Coverage(0); c != 1 {
		t.Errorf("untouched coverage = %v, want 1", c)
	}
	if got.Resp(0, 4) != 17 || !got.Routed(0, 4) {
		t.Error("observation data lost")
	}
}

func TestWriteToIdenticalBytesForIdenticalStores(t *testing.T) {
	build := func() *bytes.Buffer {
		s := testStore(t)
		s.SetRound(2, 7, 3, true)
		s.SetMissing(9)
		s.SetCoverage(8, 0.4)
		s.SetDone(8)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(build().Bytes(), build().Bytes()) {
		t.Error("WriteTo is not deterministic — checkpoint/resume byte-equality depends on it")
	}
}

// TestWriteToAllocBytes: a checkpoint's working memory is its buffer and one
// column, not the file. The Monitor writes one every CheckpointEvery rounds,
// so a store's worth of staging would be most of what a journalled round
// allocates; here the file is ≈ 2.5 MB and the budget 160 KiB.
func TestWriteToAllocBytes(t *testing.T) {
	s := benchStore(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.WriteTo(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 160<<10 {
		t.Errorf("WriteTo of a 2 048-block × one-year store allocated %d bytes, budget %d", got, 160<<10)
	}
}

// TestWriteToKeepsNoWriter: WriteTo's pooled writer goes back Reset(nil),
// so the io.Writer a caller handed it is garbage once the call returns —
// the first collection finalizes it — not pinned by the pool until the pool
// itself is dropped.
func TestWriteToKeepsNoWriter(t *testing.T) {
	s := testStore(t)
	finalized := make(chan struct{})
	func() {
		w := new(bytes.Buffer)
		runtime.SetFinalizer(w, func(*bytes.Buffer) { close(finalized) })
		if _, err := s.WriteTo(w); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-finalized:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer handed to WriteTo outlived a collection: the pool holds it")
	}
}

// TestConcurrentWriteTo: concurrent WriteTo calls on one store each take a
// writer of their own from the pool and write the same bytes (run it under
// -race).
func TestConcurrentWriteTo(t *testing.T) {
	s := benchStore(t)
	var want bytes.Buffer
	if _, err := s.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	const writers = 4
	got := make([]bytes.Buffer, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				got[i].Reset()
				if _, errs[i] = s.WriteTo(&got[i]); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range writers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(got[i].Bytes(), want.Bytes()) {
			t.Errorf("writer %d: %d bytes differ from a lone WriteTo's %d", i, got[i].Len(), want.Len())
		}
	}
}

// sweepStore is small enough to write or read once per byte offset of its
// file in well under a second, with a tracked block and a partial round so
// every section of the file is non-empty.
func sweepStore(t *testing.T) (*Store, []byte) {
	t.Helper()
	s := testStore(t)
	s.TrackRTT(2)
	for r := 0; r < 300; r++ {
		s.SetRound(0, r, 60+r/40, r%9 != 0)
		s.SetRound(2, r, r%5, true)
		s.SetRTT(2, r, uint16(40+r%7))
		s.SetDone(r)
	}
	s.SetCoverage(12, 0.7)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

var errWriteFailed = errors.New("write failed")

// failingWriter accepts budget bytes, then fails.
type failingWriter struct{ budget int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.budget {
		w.budget -= len(p)
		return len(p), nil
	}
	n := w.budget
	w.budget = 0
	return n, errWriteFailed
}

// TestWriteToFailsAtEveryOffset: a checkpoint write that fails after k bytes
// returns the writer's error and counts the k bytes the writer took — never
// the bytes it buffered but could not write, which would make a torn file
// read as a whole one to a caller that checks the count.
func TestWriteToFailsAtEveryOffset(t *testing.T) {
	s, raw := sweepStore(t)
	for k := 0; k < len(raw); k++ {
		n, err := s.WriteTo(&failingWriter{budget: k})
		if !errors.Is(err, errWriteFailed) {
			t.Fatalf("writer failing after %d of %d bytes: err = %v", k, len(raw), err)
		}
		if n != int64(k) {
			t.Fatalf("writer failing after %d of %d bytes: WriteTo reported %d written", k, len(raw), n)
		}
	}
}

// TestReadFromRejectsEveryPrefix: a file torn anywhere — every strict prefix
// of a written one — fails to open rather than loading as a shorter store.
func TestReadFromRejectsEveryPrefix(t *testing.T) {
	_, raw := sweepStore(t)
	for k := 0; k < len(raw); k++ {
		if _, err := ReadFrom(bytes.NewReader(raw[:k])); err == nil {
			t.Fatalf("ReadFrom accepted the first %d of %d bytes", k, len(raw))
		}
	}
	if _, err := ReadFrom(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}
