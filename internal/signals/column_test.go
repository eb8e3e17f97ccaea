package signals

import (
	"runtime"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
)

// TestColumnMonths: a column's months are slices of what it wraps or grew,
// a growth adds months without moving the ones held, and a view reads zero
// past its end.
func TestColumnMonths(t *testing.T) {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(0, 4, 0), 6*time.Hour) // months from 0, 124, 244, 368, 488
	vals := make([]float32, 300)
	for r := range vals {
		vals[r] = float32(r)
	}
	c := ColumnOf(tl, vals)
	if c.Len() != 300 || c.At(299) != 299 || c.At(300) != 0 || c.At(-1) != 0 {
		t.Fatalf("ColumnOf: Len %d, At(299) %v, At(300) %v", c.Len(), c.At(299), c.At(300))
	}
	if m := c.Month(1); len(m) != 120 || m[0] != 124 || &m[0] != &vals[124] {
		t.Fatalf("month 1 of a wrapped column: %d cells from %v, not vals' own", len(m), m[0])
	}
	if m := c.Month(2); len(m) != 300-244 {
		t.Fatalf("month 2 is cut at the column's end: %d cells", len(m))
	}
	if c.Month(3) != nil {
		t.Fatal("a month past the ones held is not nil")
	}
	v := c.View(130)
	if v.Len() != 130 || v.At(129) != 129 || v.At(130) != 0 || len(v.Month(1)) != 6 || len(v.Month(2)) != 0 {
		t.Fatalf("View(130): Len %d, At(129) %v, At(130) %v, month 1 %d cells", v.Len(), v.At(129), v.At(130), len(v.Month(1)))
	}

	var a, b Column
	GrowColumns(tl, 0, &a, &b)
	if a.Len() != 124 || b.Len() != 124 {
		t.Fatalf("grown through month 0: %d and %d rounds", a.Len(), b.Len())
	}
	a.Set(5, 7)
	first := &a.Month(0)[0]
	view := a.View(a.Len())
	GrowColumns(tl, 2, &a, &b)
	if a.Len() != 368 || &a.Month(0)[0] != first || a.At(5) != 7 {
		t.Fatalf("grown through month 2: %d rounds, month 0 moved %v, At(5) %v", a.Len(), &a.Month(0)[0] != first, a.At(5))
	}
	if view.Len() != 124 || view.Month(1) != nil {
		t.Fatalf("a view taken before a growth sees its months: Len %d, month 1 %d cells", view.Len(), len(view.Month(1)))
	}
	GrowColumns(tl, 99, &a, &b) // clamped to the last month
	if a.Len() != tl.NumRounds() || b.Len() != tl.NumRounds() {
		t.Fatalf("grown past the last month: %d and %d of %d rounds", a.Len(), b.Len(), tl.NumRounds())
	}
	for r := range tl.NumRounds() {
		a.Set(r, float32(r))
	}
	if a.At(487) != 487 || a.At(488) != 488 || b.At(488) != 0 {
		t.Fatal("a round of the last months reads another's cell")
	}
}

// TestFoldCrossingBytes: the fold that crosses into month m allocates the
// new month's segments, not a copy of the months held, so its bytes do not
// depend on m. Months 2, 12 and 30 of the paper's timeline; while a
// crossing regrew every held month, the one into month 30 allocated about
// ten times the one into month 2.
func TestFoldCrossingBytes(t *testing.T) {
	space := netmodel.MustBuildSpace([]*netmodel.AS{
		{ASN: 64500, Prefixes: []netmodel.Prefix{netmodel.MustParsePrefix("10.0.0.0/23")}},
		{ASN: 64501, Prefixes: []netmodel.Prefix{netmodel.MustParsePrefix("10.0.4.0/23")}},
	})
	tl := timeline.Default()
	st := dataset.NewStore(tl, space.Blocks())
	b := NewStreamingBuilder(st, space, DefaultMinCoverage)
	b.AS(64500)
	b.AS(64501)
	var got [3]uint64
	next := 0
	for i, m := range []int{2, 12, 30} {
		lo, _ := tl.MonthRounds(m)
		for ; next <= lo; next++ {
			for bi := range st.NumBlocks() {
				st.SetRound(bi, next, 5, true)
			}
			st.SetDone(next)
			if next == lo {
				break
			}
			if err := b.Fold(next); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := b.Fold(lo); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got[i] = after.TotalAlloc - before.TotalAlloc
		next = lo + 1
	}
	lo, hi := min(got[0], got[1], got[2]), max(got[0], got[1], got[2])
	if hi > lo*3/2 {
		t.Errorf("the folds into months 2, 12 and 30 allocate %v bytes: a crossing's cost grows with the months held", got)
	}
	if _, end := tl.MonthRounds(30); b.AS(64500).BGP.Len() != end {
		t.Errorf("the series holds %d rounds after folding into month 30, want %d", b.AS(64500).BGP.Len(), end)
	}
}
