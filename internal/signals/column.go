package signals

import "countrymon/internal/timeline"

// Column is one per-round signal column held in month segments, the unit the
// paper analyses by: segment m holds the rounds of month m
// (timeline.MonthRounds). The months held are a prefix of the timeline, and a
// round past them, or past a view's end, reads zero, as a cell of a dataset
// segment never written does. A segment is allocated when its month is first
// written (GrowColumns) and is never copied or resized afterwards, so
// growing a column costs the months it gains, not the months it holds.
//
// Readers that walk many rounds go a month at a time (Month); At is the
// random-access read.
type Column struct {
	tl *timeline.Timeline
	// segs[m] is month m's cells, for the months held. A column grown by
	// GrowColumns has room for every month of the timeline in segs, so a
	// growth appends and a view taken earlier keeps its own length.
	segs [][]float32
	// n is the rounds readable: the end of the months held, or a view's end.
	n int
}

// ColumnOf wraps vals, round r's value at vals[r], as a column over tl: the
// column's months are slices of vals, not copies. It holds len(vals) rounds.
func ColumnOf(tl *timeline.Timeline, vals []float32) Column {
	c := Column{tl: tl, n: len(vals)}
	if len(vals) == 0 {
		return c
	}
	months := tl.MonthOfRound(len(vals)-1) + 1
	c.segs = make([][]float32, months)
	for m := range c.segs {
		lo, hi := tl.MonthRounds(m)
		c.segs[m] = vals[lo:min(hi, len(vals)):min(hi, len(vals))]
	}
	return c
}

// GrowColumns extends cols, which hold the same whole months, through month
// m (the timeline's last month if m is past it). One buffer takes the cells
// of every month they gain, column by column, and is sliced into those
// months; nothing held is copied. A column's first growth also sizes its
// segment list to the timeline's months, one allocation for all of cols.
func GrowColumns(tl *timeline.Timeline, m int, cols ...*Column) {
	months := tl.NumMonths()
	m = min(m, months-1)
	from := len(cols[0].segs)
	if m < from {
		return
	}
	if cap(cols[0].segs) < months {
		hdr := make([][]float32, len(cols)*months)
		for i, c := range cols {
			c.tl = tl
			c.segs = append(hdr[i*months:i*months:(i+1)*months], c.segs...)
		}
	}
	lo, _ := tl.MonthRounds(from)
	_, hi := tl.MonthRounds(m)
	buf := make([]float32, len(cols)*(hi-lo))
	for _, c := range cols {
		for k := from; k <= m; k++ {
			a, b := tl.MonthRounds(k)
			c.segs = append(c.segs, buf[a-lo:b-lo:b-lo])
		}
		buf = buf[hi-lo:]
		c.n = hi
	}
}

// Len returns the number of rounds the column holds: a round at or past it
// reads zero.
func (c *Column) Len() int { return c.n }

// At returns round r's value, zero past the rounds held.
func (c *Column) At(r int) float32 {
	if uint(r) >= uint(c.n) {
		return 0
	}
	m := c.tl.MonthOfRound(r)
	lo, _ := c.tl.MonthRounds(m)
	return c.segs[m][r-lo]
}

// Set sets round r's value; r must be below Len.
func (c *Column) Set(r int, v float32) {
	if uint(r) >= uint(c.n) {
		panic("signals: Column.Set past the rounds held")
	}
	m := c.tl.MonthOfRound(r)
	lo, _ := c.tl.MonthRounds(m)
	c.segs[m][r-lo] = v
}

// Month returns month m's cells held, round lo+j of the month at index j
// (lo from timeline.MonthRounds): the segment itself, so a write goes to the
// column. It is shorter than the month where the column ends inside it, and
// nil for a month past the ones held.
func (c *Column) Month(m int) []float32 {
	if m < 0 || m >= len(c.segs) {
		return nil
	}
	seg := c.segs[m]
	lo, _ := c.tl.MonthRounds(m)
	if k := c.n - lo; k < len(seg) {
		return seg[:max(k, 0)]
	}
	return seg
}

// View returns the column's first rounds rounds: a column over the same
// segments, which reads zero from rounds on.
func (c *Column) View(rounds int) Column {
	v := *c
	v.n = min(max(rounds, 0), c.n)
	return v
}

// monthCells returns month m's rounds [lo, hi) and the three columns'
// cells of it held, for a pass that walks rounds a month at a time.
func (es *EntitySeries) monthCells(m int) (lo, hi int, bgp, fbs, ips []float32) {
	lo, hi = es.TL.MonthRounds(m)
	return lo, hi, es.BGP.Month(m), es.FBS.Month(m), es.IPS.Month(m)
}
