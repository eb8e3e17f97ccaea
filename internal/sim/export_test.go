package sim

import "time"

// MemoHolds reports whether BlockStateAt(bi, at) would be answered from the
// memo right now. Tests count hits with it, so the hot path carries no
// counter.
func (s *Scenario) MemoHolds(bi int, at time.Time) bool {
	sec := at.Unix()
	return sec >= 0 && memoHit(s.memo[bi].Load(), uint64(sec/60))
}
