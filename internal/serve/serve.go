// Package serve is the production read path: an in-memory columnar outage
// timeline store that is fed incrementally — one round at a time, as a live
// campaign lands data — and queried by many concurrent readers.
//
// The analysis pipeline (internal/signals) derives series on demand; serving
// millions of readers from it would rebuild or at least re-walk series per
// request. This package inverts that: each registered entity (country,
// region, AS or /24 block) owns flat per-round columns (BGP★/FBS■/IPS▲ plus
// the missing mask) that are copied from their Source exactly once, when the
// round is published via Advance. Rounds below the store's watermark are
// sealed: their cells never change again, which is what makes the HTTP
// layer's aggressive caching sound — responses covering only sealed rounds
// carry strong ETags and `Cache-Control: immutable`, and their rendered
// bytes are reused verbatim until evicted.
//
// The columns hold the sealed rounds plus the rest of the watermark's month,
// not the planned timeline: a store costs O(entities × sealed rounds), and
// Advance reallocates them, copying the sealed prefix, once per month. The
// store's one time column, the series' unix seconds as text, grows at the same
// points, and Advance formats each round into it once, as it seals the round:
// a render copies it.
//
// The intended wiring for a live campaign is the streaming signals builder:
// Monitor folds each round into the warm series (O(blocks)), then
// Store.Advance copies the new round's values out of them (O(entities)).
// A finished campaign instead registers its series and seals everything with
// AdvanceTo. Published values are as-of-publication: a later FBS eligibility
// backfill refines the *analysis* view of earlier rounds, but a sealed round
// in the serving store is immutable, like any published time-series feed.
package serve

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

// Source supplies one entity's per-round signal values to the store. Sample
// is called once per round per entity, at Advance time; it must be able to
// answer for any round at or below the one being advanced.
type Source interface {
	// Sample returns the entity's signal values at round r and whether the
	// round carries no usable data.
	Sample(r int) (bgp, fbs, ips float32, missing bool)
	// IPSValidMonth reports whether the IPS signal is evaluated in dense
	// month m (re-copied on every Advance: month validity firms up as the
	// month's rounds land).
	IPSValidMonth(m int) bool
}

// Detector turns an entity's sealed series into outage events, as a pass
// that resumes (signals.DetectFrom's shape): prev and from are the detection
// and pass state an earlier call returned over a shorter sealed view, or nil
// for a run from round 0, and the state returned is the pass's at round mark.
// Whatever it resumes from, the detection it returns must be the one a run
// from round 0 gives, in arrays of its own: readers may still hold prev. The
// default is signals.DetectFrom with the entity's configured thresholds; the
// IODA adapter plugs in its fixed-baseline variant.
type Detector func(es *signals.EntitySeries, prev *signals.Detection, from *signals.State, mark int) (*signals.Detection, *signals.State)

// Entity is one registered timeline: a country, region, AS or /24 block.
// Its column cells at rounds below the store watermark are immutable.
type Entity struct {
	// Key is the canonical "type/code" identifier, e.g. "asn/6877".
	Key string
	// Type and Code are the key's halves.
	Type, Code string

	src      Source
	detector Detector

	// Columns: the sealed rounds at registration, then, from the first
	// Advance on, through the end of the watermark's month (grow). Cells
	// below the watermark are sealed. Advance may swap the slices, so they
	// are read under the store lock: inside Snapshot, or through
	// BGP/FBS/IPS/Missing called there.
	bgp, fbs, ips []float32
	missing       []bool
	ipsValid      []bool

	// Cached detection over the sealed prefix (detMu; recomputed lazily
	// when the watermark has moved past detWM), the pass's state at the first
	// round of the month holding detWM-1, where the next one resumes, and
	// the IPS month validity it read.
	detMu    sync.Mutex
	det      *signals.Detection
	detWM    int
	detAt    *signals.State
	detValid []bool
}

// Store is the in-memory columnar timeline store. Registration and Advance
// take the write lock; queries take the read lock and only touch sealed
// cells, so readers never observe a half-published round.
type Store struct {
	tl *timeline.Timeline

	mu        sync.RWMutex
	entities  map[string]*Entity
	order     []string
	watermark int

	// The series time column: each sealed round's unix seconds, formatted
	// once, when Advance seals the round, each followed by a comma; round r's
	// text is timeText[timeOff[r]:timeOff[r+1]-1]. Both grow with the entity
	// columns, through the end of the watermark's month, so the formatting
	// appends into spare capacity. Swapped like the columns: read under the
	// read lock.
	timeText []byte
	timeOff  []uint32

	// epoch increments on every mutation (Advance or Register); the HTTP
	// layer tags mutable cached responses with it.
	epoch atomic.Uint64
}

// NewStore builds an empty store over the campaign timeline.
func NewStore(tl *timeline.Timeline) *Store {
	return &Store{tl: tl, entities: make(map[string]*Entity), timeOff: []uint32{0}}
}

// Timeline returns the campaign timeline.
func (s *Store) Timeline() *timeline.Timeline { return s.tl }

// EntityKey canonicalizes a type/code pair.
func EntityKey(typ, code string) string { return typ + "/" + code }

// Register adds an entity fed by src, using detect (nil = signals.Detect
// with cfg is NOT assumed; pass DetectWith(cfg) or a custom Detector) for
// the outage endpoint. Rounds already sealed are backfilled from src
// immediately, so late registration — e.g. an API server materializing
// entities on first request — serves the same bytes as eager registration.
// Registering an existing key returns the existing entity unchanged.
func (s *Store) Register(typ, code string, src Source, detect Detector) (*Entity, error) {
	if typ == "" || code == "" {
		return nil, fmt.Errorf("serve: empty entity type or code")
	}
	if src == nil {
		return nil, fmt.Errorf("serve: nil source for %s/%s", typ, code)
	}
	key := EntityKey(typ, code)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entities[key]; ok {
		return e, nil
	}
	e := &Entity{
		Key: key, Type: typ, Code: code,
		src:      src,
		detector: detect,
		ipsValid: make([]bool, s.tl.NumMonths()),
		detWM:    -1,
	}
	e.grow(s.watermark, 0) // the next Advance grows it through its month
	for r := 0; r < s.watermark; r++ {
		e.copyRound(r)
	}
	e.copyIPSValidity()
	s.entities[key] = e
	s.order = append(s.order, key)
	s.epoch.Add(1)
	return e, nil
}

// DetectWith returns the standard Detector: signals.DetectFrom at cfg.
func DetectWith(cfg signals.Config) Detector {
	return func(es *signals.EntitySeries, prev *signals.Detection, from *signals.State, mark int) (*signals.Detection, *signals.State) {
		return signals.DetectFrom(es, cfg, prev, from, mark)
	}
}

// grow reallocates e's columns to n rounds — one allocation for the three
// float columns, one for the missing mask — keeping the sealed prefix [0, wm).
// A view sliced before the swap keeps reading the old arrays, whose sealed
// cells are the same.
func (e *Entity) grow(n, wm int) {
	buf := make([]float32, 3*n)
	bgp, fbs, ips := buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	copy(bgp, e.bgp[:wm])
	copy(fbs, e.fbs[:wm])
	copy(ips, e.ips[:wm])
	missing := make([]bool, n)
	copy(missing, e.missing[:wm])
	e.bgp, e.fbs, e.ips, e.missing = bgp, fbs, ips, missing
}

func (e *Entity) copyRound(r int) {
	bgp, fbs, ips, missing := e.src.Sample(r)
	e.bgp[r], e.fbs[r], e.ips[r], e.missing[r] = bgp, fbs, ips, missing
}

func (e *Entity) copyIPSValidity() {
	for m := range e.ipsValid {
		e.ipsValid[m] = e.src.IPSValidMonth(m)
	}
}

// Advance publishes round: every entity's columns gain the round's values
// from their Source, and the watermark moves to round+1. Rounds between the
// old watermark and round are published too (a resumed campaign catches the
// store up in one call); re-advancing the last sealed round re-copies it,
// so replaying a checkpoint overlap is idempotent. Rounds strictly below
// watermark-1 are sealed and are not touched.
func (s *Store) Advance(round int) error {
	if round < 0 || round >= s.tl.NumRounds() {
		return fmt.Errorf("serve: Advance round %d out of range [0,%d)", round, s.tl.NumRounds())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if round+1 < s.watermark {
		return nil // already sealed
	}
	lo := s.watermark
	if round+1 == s.watermark {
		lo = round // idempotent re-publish of the newest sealed round
	}
	// Columns reach through the month holding the new watermark, so its
	// remaining rounds seal without reallocating; past the last month,
	// MonthRounds clamps to NumRounds.
	_, n := s.tl.MonthRounds(s.tl.MonthOfRound(round + 1))
	if cap(s.timeOff) < n+1 {
		s.growTime(n)
	}
	// Each round newly sealed gets its time text; a re-published round keeps
	// its own, since its time never changes.
	for r := s.watermark; r <= round; r++ {
		s.timeText = strconv.AppendInt(s.timeText, s.tl.Time(r).Unix(), 10)
		s.timeText = append(s.timeText, ',')
		s.timeOff = append(s.timeOff, uint32(len(s.timeText)))
	}
	for _, key := range s.order {
		e := s.entities[key]
		if len(e.bgp) < n {
			e.grow(n, s.watermark)
		}
		for r := lo; r <= round; r++ {
			e.copyRound(r)
		}
		e.copyIPSValidity()
	}
	if round+1 > s.watermark {
		s.watermark = round + 1
	}
	s.epoch.Add(1)
	return nil
}

// growTime reallocates the time column to hold n rounds, keeping the rounds
// formatted so far: the text gets exactly the bytes the rounds up to n take,
// so formatting them never outgrows it. Unix seconds run monotonically, so
// when the first and the last of the new rounds print as wide and on the same
// side of 0, every round between them does too.
func (s *Store) growTime(n int) {
	size := len(s.timeText)
	first, last := s.tl.Time(s.watermark).Unix(), s.tl.Time(n-1).Unix()
	if w := decimalLen(first); w == decimalLen(last) && (first < 0) == (last < 0) {
		size += (n - s.watermark) * (w + 1)
	} else {
		for r := s.watermark; r < n; r++ {
			size += decimalLen(s.tl.Time(r).Unix()) + 1
		}
	}
	text := make([]byte, len(s.timeText), size)
	copy(text, s.timeText)
	off := make([]uint32, len(s.timeOff), n+1)
	copy(off, s.timeOff)
	s.timeText, s.timeOff = text, off
}

// decimalLen is the length of strconv.AppendInt(nil, x, 10).
func decimalLen(x int64) int {
	n, u := 1, uint64(x)
	if x < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// appendTimes appends the time column's text for rounds [start, end), below
// the watermark, without a trailing comma. Caller holds the read lock.
func (s *Store) appendTimes(b []byte, start, end int) []byte {
	if end <= start {
		return b
	}
	return append(b, s.timeText[s.timeOff[start]:s.timeOff[end]-1]...)
}

// AdvanceTo seals every round below n — how a completed campaign's store is
// published in one call.
func (s *Store) AdvanceTo(n int) error {
	if n <= 0 {
		return nil
	}
	return s.Advance(n - 1)
}

// Watermark returns the number of sealed rounds: rounds [0, Watermark())
// are immutable and safe to cache forever.
func (s *Store) Watermark() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.watermark
}

// Epoch returns the mutation counter (bumped by Advance and Register).
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Entity returns the registered entity for key, or nil.
func (s *Store) Entity(key string) *Entity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entities[key]
}

// Entities returns the registered entities in registration order.
func (s *Store) Entities() []*Entity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Entity, len(s.order))
	for i, key := range s.order {
		out[i] = s.entities[key]
	}
	return out
}

// NumEntities returns the number of registered entities.
func (s *Store) NumEntities() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.order)
}

// Snapshot hands the caller a consistent read view: fn runs under the read
// lock with the current watermark, so Advance cannot interleave. The
// entity's sealed columns may be read directly inside fn.
func (s *Store) Snapshot(fn func(watermark int)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.watermark)
}

// view builds the sealed-prefix series view used by detection. Caller must
// hold the store read lock.
func (e *Entity) view(tl *timeline.Timeline, wm int) *signals.EntitySeries {
	return &signals.EntitySeries{
		Name:          e.Key,
		TL:            tl,
		BGP:           e.bgp[:wm:wm],
		FBS:           e.fbs[:wm:wm],
		IPS:           e.ips[:wm:wm],
		IPSValidMonth: e.ipsValid,
		Missing:       e.missing[:wm:wm],
	}
}

// BGP returns the entity's sealed BGP value at round r (r < Watermark()).
// Advance may swap the columns, so the four accessors are called inside
// Snapshot, with r below its watermark, wherever rounds may still land.
func (e *Entity) BGP(r int) float32 { return e.bgp[r] }

// FBS returns the entity's sealed FBS value at round r; read under Snapshot.
func (e *Entity) FBS(r int) float32 { return e.fbs[r] }

// IPS returns the entity's sealed IPS value at round r; read under Snapshot.
func (e *Entity) IPS(r int) float32 { return e.ips[r] }

// Missing reports whether sealed round r carries no usable data; read under
// Snapshot.
func (e *Entity) Missing(r int) bool { return e.missing[r] }

// Detection returns the entity's outage detection over the sealed prefix,
// memoized per watermark: every later query at a watermark reuses the first
// one's. That one resumes the last memo's pass at the first round of the
// month that held its newest round (a seal changes nothing before it: the
// re-published round is never earlier), so it costs a copy of the sealed
// flags and detection over about a month of rounds. It runs from round 0
// when there is no memo to resume, when the IPS validity of a month before
// that round has changed since, or when the pass itself says so. Entities
// registered without a Detector return an empty detection.
func (s *Store) Detection(e *Entity) *signals.Detection {
	e.detMu.Lock()
	defer e.detMu.Unlock()
	// One read-locked section inside detMu samples the watermark and detects:
	// a reader that waited for the mutex sees the watermark of now, so the memo
	// never moves backwards, and Advance cannot rewrite ipsValid mid-detection.
	s.mu.RLock()
	defer s.mu.RUnlock()
	wm := s.watermark
	if e.det != nil && e.detWM == wm {
		return e.det
	}
	if e.detector == nil || wm == 0 {
		e.det, e.detAt = &signals.Detection{Flags: make([]signals.Kind, wm)}, nil
	} else {
		from := e.detAt
		if from != nil && from.Round() > 0 {
			months := s.tl.MonthOfRound(from.Round()-1) + 1
			if !slices.Equal(e.detValid[:months], e.ipsValid[:months]) {
				from = nil
			}
		}
		// A store sealed to the end of its timeline seals nothing more, so
		// its memo keeps no state.
		mark := -1
		if wm < s.tl.NumRounds() {
			mark, _ = s.tl.MonthRounds(s.tl.MonthOfRound(wm - 1))
		}
		e.det, e.detAt = e.detector(e.view(s.tl, wm), e.det, from, mark)
		if e.detAt != nil {
			e.detValid = append(e.detValid[:0], e.ipsValid...)
		}
	}
	e.detWM = wm
	return e.det
}

// --- Sources ---

// seriesSource adapts a built signals.EntitySeries (batch or warm streaming)
// into a Source.
type seriesSource struct{ es *signals.EntitySeries }

// SeriesSource feeds an entity from a derived signal series. With the
// streaming builder the same series object stays warm across the campaign,
// so sampling round r after Fold(r) reads the freshly folded values.
func SeriesSource(es *signals.EntitySeries) Source { return seriesSource{es} }

func (s seriesSource) Sample(r int) (float32, float32, float32, bool) {
	return s.es.BGP[r], s.es.FBS[r], s.es.IPS[r], s.es.Missing[r]
}

func (s seriesSource) IPSValidMonth(m int) bool { return s.es.IPSValidMonth[m] }

// sumSource aggregates member sources: the country-level feed is the sum of
// its AS series. A round is missing only when every member is missing; IPS
// months are valid when any member's are.
type sumSource struct{ members []Source }

// SumSource aggregates member sources by summation (country = Σ ASes).
func SumSource(members ...Source) Source {
	return sumSource{members: append([]Source(nil), members...)}
}

func (s sumSource) Sample(r int) (float32, float32, float32, bool) {
	var bgp, fbs, ips float32
	allMissing := true
	for _, m := range s.members {
		b, f, i, miss := m.Sample(r)
		if miss {
			continue
		}
		allMissing = false
		bgp += b
		fbs += f
		ips += i
	}
	if allMissing {
		return 0, 0, 0, true
	}
	return bgp, fbs, ips, false
}

func (s sumSource) IPSValidMonth(m int) bool {
	for _, mem := range s.members {
		if mem.IPSValidMonth(m) {
			return true
		}
	}
	return false
}
