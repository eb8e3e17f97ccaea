package serve

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

// TestSealedBodiesStableAcrossGrowth holds the serve invariants while one
// writer seals rounds across column growths and registers late entities.
// Eight readers replay pinned immutable /v1/series windows (from the shared
// cache and rendered cold), poll since= deltas and fetch /v1/outages; one
// more reads the accessors inside Snapshot. A pinned body and its ETag never
// change, the deltas concatenate to the full series, and neither an outages
// watermark nor a Detection ever shrinks. Meant to run under -race too.
func TestSealedBodiesStableAcrossGrowth(t *testing.T) {
	tl := threeMonths(t)
	rounds := tl.NumRounds()
	st := NewStore(tl)
	// The writer seals from round 700 across the growths at 732 and 1 104;
	// month 0 is complete, so windows inside it are immutable.
	const entities, start = 4, 700
	// Late entities register at watermark 800 (mid-month) and 1 104 (a month
	// boundary); the map is filled before any reader starts.
	late := map[int]string{800: "late800", 1104: "late1104"}
	salts := map[string]int{"asn/late800": 800, "asn/late1104": 1104}
	for i := 0; i < entities; i++ {
		e, err := st.Register("asn", strconv.Itoa(i), dipSource{i * 13}, DetectWith(signals.ASConfig()))
		if err != nil {
			t.Fatal(err)
		}
		salts[e.Key] = i * 13
	}
	if err := st.AdvanceTo(start); err != nil {
		t.Fatal(err)
	}
	ents := st.Entities()
	s := NewServer(st)

	type pin struct{ query, body, etag string }
	var pins []pin
	for i, w := range [][2]int{{0, 371}, {100, 250}, {371, 371}, {0, 0}} {
		q := "/v1/series?entity=" + ents[i].Key + "&from=" + strconv.FormatInt(tl.Time(w[0]).Unix(), 10) +
			"&until=" + strconv.FormatInt(tl.Time(w[1]).Unix(), 10)
		rec := get(t, s, q)
		if cc := rec.Header().Get("Cache-Control"); rec.Code != 200 || cc != ccImmutable[0] {
			t.Fatalf("fixture: GET %s = %d, Cache-Control %q", q, rec.Code, cc)
		}
		pins = append(pins, pin{q, rec.Body.String(), rec.Header().Get("Etag")})
	}

	series := func(q string) (seriesResp, bool) {
		var out seriesResp
		rec := get(t, s, q)
		if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != 200 || err != nil {
			t.Errorf("GET %s = %d, %v", q, rec.Code, err)
			return out, false
		}
		return out, true
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	deltas := make([]seriesResp, 8) // the since= pollers' concatenations, by reader
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := ents[g%entities]
			switch g % 3 {
			case 0: // pinned immutable windows, every fourth pass from a cold cache
				for i := 0; !stopped(); i++ {
					srv := s
					if i%4 == 3 {
						srv = NewServer(st)
					}
					for _, p := range pins {
						rec := get(t, srv, p.query)
						if rec.Body.String() != p.body || rec.Header().Get("Etag") != p.etag {
							t.Errorf("GET %s changed: %s %.80s, was %s %.80s", p.query, rec.Header().Get("Etag"), rec.Body.String(), p.etag, p.body)
							return
						}
					}
				}
			case 1: // since= poller: one last poll once the writer is done
				acc := &deltas[g]
				for next, done := 0, false; !done; {
					done = stopped()
					out, ok := series("/v1/series?entity=" + e.Key + "&since=" + strconv.Itoa(next))
					if !ok {
						return
					}
					if out.StartRound != next || out.Count != out.Total {
						t.Errorf("since=%d answered start %d, %d of %d rounds", next, out.StartRound, out.Count, out.Total)
						return
					}
					acc.Time = append(acc.Time, out.Time...)
					acc.BGP = append(acc.BGP, out.BGP...)
					acc.FBS = append(acc.FBS, out.FBS...)
					acc.IPS = append(acc.IPS, out.IPS...)
					acc.Missing = append(acc.Missing, out.Missing...)
					acc.IPSValid = append(acc.IPSValid, out.IPSValid...)
					next += out.Count
				}
			case 2: // outages: neither the served watermark nor Detection shrinks
				lastBody, lastDet := 0, 0
				for !stopped() {
					var out struct{ Watermark int }
					rec := get(t, s, "/v1/outages?entity="+e.Key)
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Watermark < lastBody {
						t.Errorf("outages watermark %d after %d (%v)", out.Watermark, lastBody, err)
						return
					}
					n := len(st.Detection(e).Flags)
					if n < lastDet {
						t.Errorf("detection shrank from %d rounds to %d", lastDet, n)
						return
					}
					lastBody, lastDet = out.Watermark, n
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // the accessors, inside Snapshot, on the newest sealed rounds
		defer wg.Done()
		for !stopped() {
			all := st.Entities()
			st.Snapshot(func(wm int) {
				for _, e := range all {
					for r := max(wm-40, 0); r < wm; r++ {
						bgp, fbs, ips, miss := dipSource{salts[e.Key]}.Sample(r)
						if e.BGP(r) != bgp || e.FBS(r) != fbs || e.IPS(r) != ips || e.Missing(r) != miss {
							t.Errorf("%s round %d at watermark %d: (%v,%v,%v,%v), source (%v,%v,%v,%v)",
								e.Key, r, wm, e.BGP(r), e.FBS(r), e.IPS(r), e.Missing(r), bgp, fbs, ips, miss)
						}
					}
				}
			})
		}
	}()

	for r := start; r < rounds; r++ {
		err := st.Advance(r)
		if lo, _ := tl.MonthRounds(tl.MonthOfRound(r + 1)); err == nil && lo == r+1 {
			err = st.Advance(r) // re-publish right after the growth
		}
		if code, ok := late[r+1]; ok && err == nil {
			_, err = st.Register("asn", code, dipSource{r + 1}, nil)
		}
		if err != nil {
			t.Error(err) // not Fatal: the readers still have to be stopped
			break
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	for g := range deltas {
		if g%3 != 1 {
			continue
		}
		full, _ := getSeries(t, s, "/v1/series?entity="+ents[g%entities].Key)
		got := deltas[g]
		if full.Count != rounds || !reflect.DeepEqual(got.Time, full.Time) || !reflect.DeepEqual(got.BGP, full.BGP) ||
			!reflect.DeepEqual(got.FBS, full.FBS) || !reflect.DeepEqual(got.IPS, full.IPS) ||
			!reflect.DeepEqual(got.Missing, full.Missing) || !reflect.DeepEqual(got.IPSValid, full.IPSValid) {
			t.Errorf("reader %d: since= deltas (%d rounds) do not concatenate to the full series (%d)", g, len(got.Time), full.Count)
		}
	}
}

// TestAdvanceAllocs pins the growth discipline: between growth points an
// Advance allocates nothing, and crossing one allocates two objects per
// entity, the new month's segments of its three float columns and of its
// missing mask, and two for the store, its time text and offsets regrown.
// (One per entity while the mask was planned-length, allocated at Register.)
func TestAdvanceAllocs(t *testing.T) {
	tl := threeMonths(t)
	st := NewStore(tl)
	const entities = 50
	for i := 0; i < entities; i++ {
		if _, err := st.Register("asn", strconv.Itoa(i), patternSource{i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	next := 373
	if err := st.AdvanceTo(next); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = st.Advance(next); next++ }); allocs != 0 {
		t.Errorf("an Advance inside a month allocates %.1f objects, want 0", allocs)
	}
	if next >= 732 {
		t.Fatalf("fixture: the steady-state Advances reached round %d, past month 1", next)
	}
	bounds := []int{732, 1104}
	if allocs := testing.AllocsPerRun(1, func() { _ = st.AdvanceTo(bounds[0]); bounds = bounds[1:] }); allocs != 2*entities+2 {
		t.Errorf("an Advance across a month boundary allocates %.1f objects, want %d", allocs, 2*entities+2)
	}
}

// TestAdvanceCrossingBytes: the Advance that crosses into month m gives
// each entity the new month's segments of its three float columns and its
// mask, not a copy of the months sealed, so an entity's share of its bytes does not
// depend on m. The share is the difference between two stores advanced in
// step, one with twice the other's entities: what the two have in common,
// the store's one contiguous time column, regrows with the months sealed.
// Months 2, 12 and 30 of the paper's timeline; while a crossing regrew
// every column, the one into month 30 allocated about ten times the one
// into month 2.
func TestAdvanceCrossingBytes(t *testing.T) {
	tl := timeline.Default()
	const entities = 20
	stores := [2]*Store{NewStore(tl), NewStore(tl)}
	for k, st := range stores {
		for i := range entities << k {
			if _, err := st.Register("asn", strconv.Itoa(i), patternSource{i}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got [3]uint64
	for i, m := range []int{2, 12, 30} {
		lo, _ := tl.MonthRounds(m)
		var bytes [2]uint64
		for k, st := range stores {
			if err := st.AdvanceTo(lo - 1); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := st.Advance(lo - 1); err != nil { // seals month m-1, opens month m
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes[k] = after.TotalAlloc - before.TotalAlloc
		}
		got[i] = (bytes[1] - bytes[0]) / entities
	}
	lo, hi := min(got[0], got[1], got[2]), max(got[0], got[1], got[2])
	if lo == 0 || hi > lo*3/2 {
		t.Errorf("an entity's share of the Advances into months 2, 12 and 30 is %v bytes: a crossing's cost grows with the months sealed", got)
	}
}
