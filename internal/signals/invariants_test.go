package signals

import (
	"math/rand"
	"testing"
)

// Property-based invariants of outage detection: for arbitrary signal
// series, the detection must produce sorted, non-overlapping outages whose
// flagged rounds exactly match the per-round flag array, and never flag
// missing rounds.

func randomSeries(rng *rand.Rand, rounds int) *EntitySeries {
	es := syntheticSeries(rounds, 0, 0, 0)
	baseBGP := float32(rng.Intn(30) + 2)
	baseFBS := float32(rng.Intn(25) + 2)
	baseIPS := float32(rng.Intn(900) + 50)
	for r := 0; r < rounds; r++ {
		es.BGP.Set(r, baseBGP)
		es.FBS.Set(r, baseFBS)
		es.IPS.Set(r, baseIPS)
		if rng.Intn(10) == 0 {
			es.Missing[r] = true
		}
	}
	// Random dips.
	nDips := rng.Intn(6)
	for i := 0; i < nDips; i++ {
		start := rng.Intn(rounds)
		length := 1 + rng.Intn(40)
		depth := float32(rng.Float64())
		for r := start; r < start+length && r < rounds; r++ {
			switch rng.Intn(3) {
			case 0:
				es.BGP.Set(r, es.BGP.At(r)*depth)
			case 1:
				es.FBS.Set(r, es.FBS.At(r)*depth)
			default:
				es.IPS.Set(r, es.IPS.At(r)*depth)
			}
		}
	}
	for m := range es.IPSValidMonth {
		es.IPSValidMonth[m] = true
	}
	return es
}

func TestDetectionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		es := randomSeries(rng, 500)
		for _, cfg := range []Config{ASConfig(), RegionConfig()} {
			d := Detect(es, cfg)

			// Outages sorted, non-overlapping, non-empty, in range.
			for i, o := range d.Outages {
				if o.Start >= o.End {
					t.Fatalf("trial %d: empty outage %+v", trial, o)
				}
				if o.Start < 0 || o.End > 500 {
					t.Fatalf("trial %d: out-of-range outage %+v", trial, o)
				}
				if o.Signals == 0 {
					t.Fatalf("trial %d: outage without signals", trial)
				}
				if i > 0 && o.Start < d.Outages[i-1].End {
					t.Fatalf("trial %d: overlapping outages", trial)
				}
			}

			// Flags on missing rounds are forbidden.
			for r, f := range d.Flags {
				if f != 0 && es.Missing[r] {
					t.Fatalf("trial %d: flag on missing round %d", trial, r)
				}
			}

			// Every flagged round lies inside some outage, and every
			// outage contains at least one flagged round.
			inOutage := make([]bool, 500)
			for _, o := range d.Outages {
				found := false
				for r := o.Start; r < o.End; r++ {
					inOutage[r] = true
					if d.Flags[r] != 0 {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: outage [%d,%d) without flagged rounds", trial, o.Start, o.End)
				}
			}
			for r, f := range d.Flags {
				if f != 0 && !inOutage[r] {
					t.Fatalf("trial %d: flagged round %d outside all outages", trial, r)
				}
			}

			// TotalRounds consistency.
			n := 0
			for _, f := range d.Flags {
				if f != 0 {
					n++
				}
			}
			if n != d.TotalRounds() {
				t.Fatalf("trial %d: TotalRounds mismatch", trial)
			}
		}
	}
}

func TestDetectionMonotoneInThreshold(t *testing.T) {
	// Stricter thresholds (lower Frac) must never flag more rounds.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		es := randomSeries(rng, 400)
		prev := -1
		for _, frac := range []float64{0.5, 0.7, 0.9, 0.99} {
			cfg := Config{BGPFrac: frac, FBSFrac: frac, IPSFrac: frac, MinBaseline: 0.5}
			d := Detect(es, cfg)
			n := d.TotalRounds()
			if prev >= 0 && n < prev {
				t.Fatalf("trial %d: flagged rounds decreased as threshold relaxed (%d -> %d at %.2f)",
					trial, prev, n, frac)
			}
			prev = n
		}
	}
}
