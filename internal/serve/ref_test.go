package serve

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

// refRegister is Register as it was before an entity's columns grew with the
// watermark: every column is allocated, zeroed, for the whole planned
// timeline. The body is kept as it was but for the name and the columns'
// type: the value columns are every month of one buffer, the mask a segment
// a month, each allocated here, and the sealed rounds are copied into them
// one at a time, not through the month walk Register backfills with. Advance never grows an entity
// registered this way, so a store of them is the full-length layout the
// grown columns are held to.
func (s *Store) refRegister(typ, code string, src Source, detect Detector) (*Entity, error) {
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
		tl:       s.tl,
		ipsValid: make([]bool, s.tl.NumMonths()),
		detWM:    -1,
	}
	signals.GrowColumns(s.tl, s.tl.NumMonths()-1, &e.bgp, &e.fbs, &e.ips)
	for m := range s.tl.NumMonths() {
		lo, hi := s.tl.MonthRounds(m)
		e.missing = append(e.missing, make([]bool, hi-lo))
	}
	for r := 0; r < s.watermark; r++ {
		bgp, fbs, ips, missing := src.Sample(r)
		e.bgp.Set(r, bgp)
		e.fbs.Set(r, fbs)
		e.ips.Set(r, ips)
		lo, _ := s.tl.MonthRounds(s.tl.MonthOfRound(r))
		e.missing[s.tl.MonthOfRound(r)][r-lo] = missing
	}
	e.copyIPSValidity()
	s.entities[key] = e
	s.order = append(s.order, key)
	s.epoch.Add(1)
	return e, nil
}

// threeMonths is TestBodiesMatchOracle's timeline: March to May 2022 at 2 h,
// months starting at rounds 0, 372 and 732, and the last round, 1 104, alone
// in June.
func threeMonths(t testing.TB) *timeline.Timeline {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(0, 3, 0), 2*time.Hour)
	for m, want := range []int{0, 372, 732, 1104} {
		if lo, _ := tl.MonthRounds(m); lo != want {
			t.Fatalf("month %d starts at round %d, want %d", m, lo, want)
		}
	}
	if tl.NumRounds() != 1105 {
		t.Fatalf("%d rounds, want 1105", tl.NumRounds())
	}
	return tl
}

// wholeRun is d made to run from round 0 at every call, over e's mask read
// round by round: the memo of a store whose entities detect this way is, at
// each watermark, a detection of the whole sealed view, whose mask owes
// nothing to the contiguous copy a view keeps.
func wholeRun(e *Entity, d Detector) Detector {
	return func(es *signals.EntitySeries, _ *signals.Detection, _ *signals.State, mark int) (*signals.Detection, *signals.State) {
		v := *es
		v.Missing = make([]bool, len(es.Missing))
		for r := range v.Missing {
			v.Missing[r] = e.Missing(r)
		}
		return d(&v, nil, nil, mark)
	}
}

// revisedSource is dipSource under revision: every bump of *rev moves the
// salt of its samples, so the rounds it has yet to be asked for — the newest
// sealed one too, when it is re-published — change; every second bump moves
// the salt of its IPS validity, which flips months past and present.
type revisedSource struct {
	salt int
	rev  *int
}

func (s revisedSource) Sample(r int) (bgp, fbs, ips float32, missing bool) {
	return dipSource{s.salt + *s.rev}.Sample(r)
}

func (s revisedSource) IPSValidMonth(m int) bool {
	return dipSource{s.salt + *s.rev/2}.IPSValidMonth(m)
}

// twin drives a store with grown columns and a full-length reference store
// through one schedule, and after every step compares all a reader can see.
// The reference's entities detect with wholeRun, so every detection and
// outage body got serves from a resumed memo is held to a run from round 0.
type twin struct {
	tl       *timeline.Timeline
	got, ref *Store
	srv      *Server // over got for the whole schedule: its cache spans the growths
	n        int     // entities registered
	rev      int     // the revision every entity's source is at
	revised  bool    // rev moved since the last Advance that wrote a round
	// unpublished holds the entities registered since the last Advance that
	// wrote a round: their columns still hold exactly the sealed rounds'
	// months.
	unpublished map[string]bool
	// segs holds, per entity, the first cell of each month segment seen, at
	// 4 × month + column, the mask's column 3 (checkSegments).
	segs map[string]map[int]any
}

func newTwin(tl *timeline.Timeline) *twin {
	got := NewStore(tl)
	return &twin{tl: tl, got: got, ref: NewStore(tl), srv: NewServer(got), unpublished: make(map[string]bool), segs: make(map[string]map[int]any)}
}

// checkSegments holds e's columns and mask to the month-segment discipline:
// a month's segment, once allocated, is the one every later step reads —
// never copied, never resized. It records the first cell of each column's
// months the first time it sees them.
func (w *twin) checkSegments(t *testing.T, step string, e *Entity) {
	t.Helper()
	seen := w.segs[e.Key]
	if seen == nil {
		seen = make(map[int]any)
		w.segs[e.Key] = seen
	}
	track := func(c, m, n, capacity int, first any) {
		lo, hi := w.tl.MonthRounds(m)
		if n != hi-lo || capacity != hi-lo {
			t.Fatalf("%s: %s column %d month %d holds %d cells (cap %d), want %d", step, e.Key, c, m, n, capacity, hi-lo)
		}
		if n == 0 {
			return
		}
		if held, ok := seen[4*m+c]; !ok {
			seen[4*m+c] = first
		} else if held != first {
			t.Fatalf("%s: %s column %d month %d moved: a held month was copied", step, e.Key, c, m)
		}
	}
	for m := 0; m < w.tl.NumMonths(); m++ {
		if _, hi := w.tl.MonthRounds(m); hi > e.bgp.Len() {
			break
		}
		for c, col := range []*signals.Column{&e.bgp, &e.fbs, &e.ips} {
			seg := col.Month(m)
			track(c, m, len(seg), cap(seg), unsafe.SliceData(seg))
		}
		mask := e.missing[m]
		track(3, m, len(mask), cap(mask), unsafe.SliceData(mask))
	}
}

func (w *twin) register(t *testing.T, salt int) {
	t.Helper()
	code := strconv.Itoa(w.n)
	detect := DetectWith([]signals.Config{signals.ASConfig(), signals.RegionConfig()}[w.n%2])
	w.n++
	src := revisedSource{salt, &w.rev}
	e, err := w.got.Register("asn", code, src, detect)
	if err != nil {
		t.Fatal(err)
	}
	re, err := w.ref.refRegister("asn", code, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	re.detector = wholeRun(re, detect)
	w.unpublished[e.Key] = true
	w.check(t, "Register "+e.Key)
}

// revise bumps every source's revision; it lands with the next Advance that
// writes a round, where the long-lived server starts over: the immutable
// series bodies it cached carry the IPS validity of months the revision
// flips, which the response cache does not revisit.
func (w *twin) revise() {
	w.rev++
	w.revised = true
}

func (w *twin) advance(t *testing.T, round int) {
	t.Helper()
	wm := w.got.Watermark()
	errGot, errRef := w.got.Advance(round), w.ref.Advance(round)
	w.published(t, fmt.Sprintf("Advance(%d)", round), wm, round, errGot, errRef)
}

func (w *twin) advanceTo(t *testing.T, n int) {
	t.Helper()
	wm := w.got.Watermark()
	errGot, errRef := w.got.AdvanceTo(n), w.ref.AdvanceTo(n)
	w.published(t, fmt.Sprintf("AdvanceTo(%d)", n), wm, n-1, errGot, errRef)
}

// published checks the stores after both were asked to publish round at
// watermark wm. One that wrote it (the next rounds, or the newest sealed one
// again) has grown every entity through the new watermark's month.
func (w *twin) published(t *testing.T, step string, wm, round int, errGot, errRef error) {
	t.Helper()
	if (errGot == nil) != (errRef == nil) {
		t.Fatalf("%s: error %v, reference %v", step, errGot, errRef)
	}
	if errGot == nil && round >= 0 && round+1 >= wm {
		clear(w.unpublished)
		if w.revised {
			w.srv, w.revised = NewServer(w.got), false
		}
	}
	w.check(t, step)
}

// check compares the two stores at their watermark: column lengths, every
// accessor on every sealed round, Detection, and the body, ETag and
// Cache-Control of every twinQueries request, both from the long-lived
// server's cache and rendered cold.
func (w *twin) check(t *testing.T, step string) {
	t.Helper()
	wm := w.got.Watermark()
	if ref := w.ref.Watermark(); ref != wm {
		t.Fatalf("%s: watermark %d, reference %d", step, wm, ref)
	}
	rounds := w.tl.NumRounds()
	month := rounds
	if wm < rounds {
		_, month = w.tl.MonthRounds(w.tl.MonthOfRound(wm))
	}
	cold, ref := NewServer(w.got), NewServer(w.ref)
	refEnts := w.ref.Entities()
	for i, e := range w.got.Entities() {
		r := refEnts[i]
		cols := month
		if w.unpublished[e.Key] {
			cols = 0 // the months of the sealed rounds
			if wm > 0 {
				_, cols = w.tl.MonthRounds(w.tl.MonthOfRound(wm - 1))
			}
		}
		flags := 0
		for _, mask := range e.missing {
			flags += len(mask)
		}
		if e.bgp.Len() != cols || e.fbs.Len() != cols || e.ips.Len() != cols || flags != cols {
			t.Fatalf("%s: %s columns hold %d/%d/%d rounds and %d missing flags, want %d (watermark %d of %d)",
				step, e.Key, e.bgp.Len(), e.fbs.Len(), e.ips.Len(), flags, cols, wm, rounds)
		}
		w.checkSegments(t, step, e)
		for round := 0; round < wm; round++ {
			if math.Float32bits(e.BGP(round)) != math.Float32bits(r.BGP(round)) ||
				math.Float32bits(e.FBS(round)) != math.Float32bits(r.FBS(round)) ||
				math.Float32bits(e.IPS(round)) != math.Float32bits(r.IPS(round)) || e.Missing(round) != r.Missing(round) {
				t.Fatalf("%s: %s round %d: (%v,%v,%v,%v), reference (%v,%v,%v,%v)", step, e.Key, round,
					e.BGP(round), e.FBS(round), e.IPS(round), e.Missing(round), r.BGP(round), r.FBS(round), r.IPS(round), r.Missing(round))
			}
		}
		if gd, rd := w.got.Detection(e), w.ref.Detection(r); !reflect.DeepEqual(gd, rd) {
			t.Fatalf("%s: %s detection %+v, reference %+v", step, e.Key, gd.Outages, rd.Outages)
		}
		for _, q := range twinQueries(w.tl, e.Key, wm) {
			want := get(t, ref, q)
			for _, s := range []*Server{w.srv, cold} {
				rec := get(t, s, q)
				if rec.Code != want.Code || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) ||
					rec.Header().Get("Etag") != want.Header().Get("Etag") ||
					rec.Header().Get("Cache-Control") != want.Header().Get("Cache-Control") {
					t.Fatalf("%s: GET %s = %d %s %s\n%.200s\nreference %d %s %s\n%.200s", step, q,
						rec.Code, rec.Header().Get("Etag"), rec.Header().Get("Cache-Control"), rec.Body.Bytes(),
						want.Code, want.Header().Get("Etag"), want.Header().Get("Cache-Control"), want.Body.Bytes())
				}
			}
		}
	}
	if got, want := get(t, cold, "/v1/entities").Body.String(), get(t, ref, "/v1/entities").Body.String(); got != want {
		t.Fatalf("%s: /v1/entities = %s, reference %s", step, got, want)
	}
}

// twinQueries are the requests check compares for one entity: the whole
// series, a page, since= at the edges, every month as a pinned window, the
// week ending at the newest sealed round, and the outages.
func twinQueries(tl *timeline.Timeline, key string, wm int) []string {
	series := "/v1/series?entity=" + key
	window := func(lo, last int) string {
		return series + "&from=" + strconv.FormatInt(tl.Time(lo).Unix(), 10) + "&until=" + strconv.FormatInt(tl.Time(last).Unix(), 10)
	}
	qs := []string{series, series + "&offset=100&limit=300", "/v1/outages?entity=" + key}
	for _, since := range []int{0, max(wm-1, 0), wm} {
		qs = append(qs, series+"&since="+strconv.Itoa(since))
	}
	for m := 0; m < tl.NumMonths(); m++ {
		lo, hi := tl.MonthRounds(m)
		qs = append(qs, window(lo, hi-1))
	}
	if wm > 0 {
		qs = append(qs, window(max(wm-tl.RoundsPerWeek(), 0), wm-1))
	}
	return qs
}

// TestGrownColumnsMatchFullLength holds the grown columns to the full-length
// layout, byte for byte, through registration before any Advance, one-round
// Advances across every month boundary (each followed by the idempotent
// re-publish of the round that grew the columns), late registration
// mid-month, on a month boundary and at NumRounds, the timeline's last round,
// where the columns stop at NumRounds, and AdvanceTo jumps over months.
func TestGrownColumnsMatchFullLength(t *testing.T) {
	tl := threeMonths(t)
	rounds := tl.NumRounds()

	w := newTwin(tl)
	w.register(t, 0)
	w.register(t, 13)
	w.advance(t, 0)
	w.advance(t, 1)
	for _, lo := range []int{372, 732, 1104} {
		w.advanceTo(t, lo-2)
		w.advance(t, lo-2)
		w.advance(t, lo-1) // the watermark reaches lo: every entity grows
		w.advance(t, lo-1)
		if lo == 732 {
			w.register(t, 26) // on a month boundary
		}
		w.advance(t, lo)
		if lo+1 < rounds {
			w.advance(t, lo+1)
		}
		if lo == 372 {
			w.register(t, 39) // mid-month
		}
	}
	w.advance(t, rounds-1)
	w.register(t, 52) // at NumRounds
	w.advance(t, rounds)

	j := newTwin(tl)
	j.register(t, 65)
	j.advanceTo(t, 5)
	j.advanceTo(t, 1000) // months 0 to 2 in one call
	j.register(t, 78)
	j.advanceTo(t, rounds)
	j.advance(t, 3) // sealed: a no-op
}

// FuzzServeSchedule checks a random schedule of Register, Advance, AdvanceTo,
// re-publish and source-revision steps against the full-length reference.
// Each step is two bytes: the operation and its argument. The timeline is
// threeMonths' at 12 h rounds (months from rounds 0, 62 and 122, the last
// round, 184, alone), so a check costs a sixth as much.
func FuzzServeSchedule(f *testing.F) {
	start := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(0, 3, 0), 12*time.Hour)
	f.Add([]byte{0, 7, 2, 20, 1, 3, 3, 0, 0, 200, 2, 45, 1, 1, 3, 0, 2, 80, 2, 255, 3, 0})
	f.Add([]byte{2, 61, 3, 0, 1, 2, 0, 5, 2, 61, 1, 9, 3, 0, 2, 62, 0, 1, 1, 2})
	// Revisions between seals, before a re-publish, and across the month
	// boundaries at rounds 62 and 122.
	f.Add([]byte{0, 3, 0, 8, 2, 70, 1, 2, 4, 0, 1, 2, 4, 0, 3, 0, 1, 2, 2, 52, 1, 2, 4, 0, 1, 2, 1, 2})
	// Round 62, the first of month 1, is sealed and then re-published with a
	// dip the revision puts there (salt 11 → 12): the memo resumes at 62, so
	// it sees the dip.
	f.Add([]byte{0, 11, 2, 62, 1, 2, 4, 0, 3, 0, 1, 2})
	// A memo at watermark 70 resumes at 62; two revisions then make month 0
	// valid for IPS (salt 12 → 13), which flags the dip at round 61: the next
	// memo has to start over.
	f.Add([]byte{0, 12, 2, 70, 4, 0, 4, 0, 1, 2})
	// AdvanceTo(130) seals months 0 and 1 and opens 2 in one call, a late
	// Register backfills them, AdvanceTo(185) crosses the third boundary,
	// and a Register after it backfills all four months.
	f.Add([]byte{0, 5, 2, 130, 0, 9, 1, 2, 2, 54, 0, 1, 4, 0, 3, 0})
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 64 {
			return
		}
		w := newTwin(tl)
		for i := 0; i+1 < len(steps); i += 2 {
			arg := int(steps[i+1])
			wm := w.got.Watermark()
			switch steps[i] % 5 {
			case 0:
				if w.n < 6 {
					w.register(t, arg)
				}
			case 1:
				w.advance(t, wm+arg%8-2) // sealed rounds, the next one, small gaps
			case 2:
				w.advanceTo(t, wm+arg) // jumps across months, or past the end
			case 3:
				w.advance(t, wm-1) // re-publish the newest sealed round
			case 4:
				w.revise()
			}
		}
	})
}
