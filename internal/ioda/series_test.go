package ioda

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/timeline"
	"countrymon/internal/trinocular"
)

// matchesRef holds every region's and every AS's series of p to the oracle's.
func matchesRef(p *Platform) error {
	for _, region := range netmodel.Regions() {
		if got, want := p.RegionSeries(region), p.refRegionSeries(region); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("region %v: series differ from the oracle's", region)
		}
	}
	for _, as := range p.space.ASes() {
		if got, want := p.ASSeries(as.ASN), p.refASSeries(as.ASN); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%v: series differ from the oracle's", as.ASN)
		}
	}
	return nil
}

// randomPlatform is a platform over space's blocks and rounds six-hourly
// rounds: random missing rounds, every routed bit past the last round set (a
// decoded file may carry them), random Trinocular counts for some ASes and
// each AS present in a random set of regions. A block's routed bits are
// random, or set in every round, or in every round but the first, or the
// last, of each piece countRouted reads (a segment's rounds cut where a month
// begins), so pieces a block fills, and ones it misses by a round at either
// end, are common.
func randomPlatform(space *netmodel.Space, rounds int, seed int64) *Platform {
	rng := rand.New(rand.NewSource(seed))
	start := timeline.DefaultStart
	tl := timeline.New(start, start.Add(time.Duration(rounds-1)*6*time.Hour), 6*time.Hour)
	st := dataset.NewStore(tl, space.Blocks())
	for r := range rounds {
		if rng.Intn(6) == 0 {
			st.SetMissing(r)
		}
	}
	for bi := range st.NumBlocks() {
		shape := rng.Intn(4)
		for r := range rounds {
			lo, hi := tl.MonthRounds(tl.MonthOfRound(r))
			routed := rng.Intn(5) > 0
			switch shape {
			case 1:
				routed = true
			case 2:
				routed = r != lo && r%dataset.SegmentRounds != 0
			case 3:
				routed = r+1 != hi && (r+1)%dataset.SegmentRounds != 0
			}
			st.SetRound(bi, r, 0, routed)
		}
	}
	if rounds%64 != 0 {
		st = withPaddingBits(st)
	}
	p := &Platform{
		store:    st,
		space:    space,
		trin:     &trinocular.Result{PerAS: make(map[netmodel.ASN][]float32)},
		presence: make(map[netmodel.ASN][]netmodel.Region),
		blocksOf: make(map[netmodel.ASN]int),
		measured: measuredMask(st.MissingRounds()),
	}
	for _, as := range space.ASes() {
		p.blocksOf[as.ASN] = as.NumBlocks()
		if rng.Intn(3) > 0 {
			counts := make([]float32, rounds)
			for r := range counts {
				counts[r] = float32(rng.Intn(40))
			}
			p.trin.PerAS[as.ASN] = counts
		}
		for _, region := range netmodel.Regions() {
			if rng.Intn(4) == 0 {
				p.presence[as.ASN] = append(p.presence[as.ASN], region)
			}
		}
	}
	return p
}

// withPaddingBits returns st as ReadFrom gives it back from a file whose
// every routed row has all its bits past the last round set. The v4 routed
// section is the file's last but the tracked-RTT count (zero here): one row
// of a word per segment for each block.
func withPaddingBits(st *dataset.Store) *dataset.Store {
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		panic(err)
	}
	raw := buf.Bytes()
	words := st.NumSegments()
	rows := raw[len(raw)-4-8*words*st.NumBlocks() : len(raw)-4]
	pad := ^uint64(0) << (st.Timeline().NumRounds() % 64)
	for bi := range st.NumBlocks() {
		w := rows[8*(bi*words+words-1):]
		binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)|pad)
	}
	out, err := dataset.ReadFrom(bytes.NewReader(raw))
	if err != nil {
		panic(err)
	}
	return out
}

// TestRegionSeriesMatchesRef: reading the routed bitsets a word at a time,
// and counting a block that fills a piece once for the piece, gives every
// region and every AS the series the per-bit walk does — on the fixture, and
// on random stores whose round counts end inside a word, with padding bits
// set past the last round.
func TestRegionSeriesMatchesRef(t *testing.T) {
	sc, p := fixture(t)
	if err := matchesRef(p); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	for _, rounds := range []int{1, 63, 64, 65, 200, sc.TL.NumRounds()} {
		if err := matchesRef(randomPlatform(sc.Space, rounds, int64(rounds))); err != nil {
			t.Fatalf("%d random rounds: %v", rounds, err)
		}
	}
}

// fuzzSpace is a small address space for the fuzz target: six ASes of one to
// four /24s.
func fuzzSpace() *netmodel.Space {
	var ases []*netmodel.AS
	for i, p := range []string{"100.64.0.0/24", "100.64.2.0/23", "100.64.4.0/22", "100.64.8.0/24", "100.64.9.0/24", "100.64.12.0/23"} {
		ases = append(ases, &netmodel.AS{ASN: netmodel.ASN(64500 + i), Prefixes: []netmodel.Prefix{netmodel.MustParsePrefix(p)}})
	}
	space, err := netmodel.BuildSpace(ases)
	if err != nil {
		panic(err)
	}
	return space
}

// FuzzRegionSeriesMatchesRef drives the word walk against the per-bit oracle
// over random stores, round counts and regional presence.
func FuzzRegionSeriesMatchesRef(f *testing.F) {
	f.Add(int64(1), uint16(1))
	f.Add(int64(2), uint16(64))
	f.Add(int64(3), uint16(129))
	f.Add(int64(4), uint16(1000))
	space := fuzzSpace()
	f.Fuzz(func(t *testing.T, seed int64, rounds uint16) {
		if err := matchesRef(randomPlatform(space, 1+int(rounds)%1500, seed)); err != nil {
			t.Fatal(err)
		}
	})
}
