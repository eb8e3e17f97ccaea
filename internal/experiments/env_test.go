package experiments

import (
	"fmt"
	"sync"
	"testing"

	"countrymon/internal/netmodel"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
)

// TestDetectionCachePerKeyOnce verifies the per-key once semantics of the
// Env detection caches: concurrent callers for the same entity must share a
// single Detect run (and thus observe pointer-identical results).
func TestDetectionCachePerKeyOnce(t *testing.T) {
	e := New(sim.Config{Seed: 1, Scale: 0.02})
	e.Store()
	asn := e.TargetASNs()[0]
	region := netmodel.Kherson

	const callers = 16
	asGot := make([]interface{}, callers)
	regGot := make([]interface{}, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func() {
			defer wg.Done()
			asGot[g] = e.OurAS(asn)
			regGot[g] = e.OurRegion(region)
		}()
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if asGot[g] != asGot[0] {
			t.Fatalf("caller %d got a different OurAS detection pointer", g)
		}
		if regGot[g] != regGot[0] {
			t.Fatalf("caller %d got a different OurRegion detection pointer", g)
		}
	}
}

// TestWarmMatchesLazyEvaluation checks that the warm-up leaves the caches
// holding the same detections the lazy getters build: every target AS's and
// every region's outages, ours and IODA's, event by event.
func TestWarmMatchesLazyEvaluation(t *testing.T) {
	e := New(sim.Config{Seed: 1, Scale: 0.02})
	e.Warm()
	if e.Store() == nil || e.Classifier() == nil || e.Signals() == nil ||
		e.Trinocular() == nil || e.IODA() == nil || e.PowerReport() == nil {
		t.Fatal("Warm left part of the pipeline unmaterialized")
	}
	lazy := New(sim.Config{Seed: 1, Scale: 0.02})
	for _, asn := range e.TargetASNs() {
		sameOutages(t, fmt.Sprintf("AS%d ours", asn), e.OurAS(asn), lazy.OurAS(asn))
		sameOutages(t, fmt.Sprintf("AS%d IODA", asn), e.IODAAS(asn), lazy.IODAAS(asn))
	}
	for _, r := range netmodel.Regions() {
		sameOutages(t, fmt.Sprintf("%s ours", r), e.OurRegion(r), lazy.OurRegion(r))
		sameOutages(t, fmt.Sprintf("%s IODA", r), e.IODARegion(r), lazy.IODARegion(r))
	}
}

// sameOutages fails the test at the first outage (Start, End, Signals) in
// which a warmed detection and a lazily built one differ. IODA reports
// nothing below its floor, so both may be nil, but not only one.
func sameOutages(t *testing.T, what string, warm, lazy *signals.Detection) {
	t.Helper()
	if (warm == nil) != (lazy == nil) {
		t.Fatalf("%s: warmed detection nil=%t, lazy nil=%t", what, warm == nil, lazy == nil)
	}
	if warm == nil {
		return
	}
	if len(warm.Outages) != len(lazy.Outages) {
		t.Fatalf("%s: warmed detection has %d outages, lazy %d", what, len(warm.Outages), len(lazy.Outages))
	}
	for i, w := range warm.Outages {
		l := lazy.Outages[i]
		if w.Start != l.Start || w.End != l.End || w.Signals != l.Signals {
			t.Fatalf("%s: outage %d is [%d, %d) %v warmed, [%d, %d) %v lazy", what, i, w.Start, w.End, w.Signals, l.Start, l.End, l.Signals)
		}
	}
}

// TestEnvTracksF12Blocks: the store tracks RTTs for exactly the blocks F12
// averages. Every tracked block is Kherson-homed and originated by an AS in
// f12ASNs, and every block asMonthlyRTT reads is tracked.
func TestEnvTracksF12Blocks(t *testing.T) {
	e := New(sim.Config{Seed: 1, Scale: 0.02})
	sc, st := e.Scenario(), e.Store()
	f12 := make(map[netmodel.ASN]bool)
	for _, asn := range f12ASNs {
		f12[asn] = true
	}
	tracked := 0
	for bi, blk := range st.Blocks() {
		if !st.RTTTracked(bi) {
			continue
		}
		tracked++
		if asn := sc.Space.OriginOf(blk); !f12[asn] || !khersonHomed(sc, blk) {
			t.Errorf("%v (AS%d, Kherson-homed %t) is tracked, but F12 does not read it", blk, asn, khersonHomed(sc, blk))
		}
	}
	read := 0
	for _, asn := range f12ASNs {
		as := sc.Space.Lookup(asn)
		if as == nil {
			continue
		}
		for _, blk := range as.Blocks() {
			if !khersonHomed(sc, blk) {
				continue
			}
			read++
			if bi := st.BlockIndex(blk); bi < 0 || !st.RTTTracked(bi) {
				t.Errorf("F12 averages AS%d's %v, which is not tracked", asn, blk)
			}
		}
	}
	if read == 0 || tracked != read {
		t.Errorf("%d blocks tracked, F12 reads %d", tracked, read)
	}
}
