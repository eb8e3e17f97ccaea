package signals_test

import (
	"math"
	"reflect"
	"testing"

	"countrymon/internal/dataset"
	"countrymon/internal/netmodel"
	"countrymon/internal/scenario"
	"countrymon/internal/signals"
)

// TestMissingIsMissing is the relation "missing is missing": a round recorded
// missing gives the same AS series, block eligibility and verdicts whatever
// counts and routed bits the store holds under it. Each library scenario's
// batch store, its vantage outages and every 23rd round besides marked
// missing, is built twice: once as generated, once with every cell of every
// missing round overwritten by hashed garbage. The two must agree exactly.
func TestMissingIsMissing(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			world := spec.MustCompile().Sim
			stores := [2]*dataset.Store{world.GenerateStore(nil), world.GenerateStore(nil)}
			for _, st := range stores {
				for r := 0; r < st.Timeline().NumRounds(); r += 23 {
					st.SetMissing(r)
				}
			}
			garbled := stores[1]
			for r, missing := range garbled.MissingRounds() {
				if !missing {
					continue
				}
				for bi := range garbled.NumBlocks() {
					h := netmodel.Hash3(0x4d15, uint64(r), uint64(bi))
					garbled.SetRound(bi, r, int(h%200), h&(1<<40) != 0)
				}
			}

			want := signals.NewBuilder(stores[0], world.Space)
			got := signals.NewBuilder(garbled, world.Space)
			months := stores[0].Timeline().NumMonths()
			for bi := range garbled.NumBlocks() {
				for m := range months {
					if want.Eligible(bi, m) != got.Eligible(bi, m) {
						t.Fatalf("block %d month %d: eligible %v, %v with garbled missing rounds",
							bi, m, want.Eligible(bi, m), got.Eligible(bi, m))
					}
				}
			}
			for _, as := range world.Space.ASes() {
				ws, gs := want.AS(as.ASN), got.AS(as.ASN)
				if !reflect.DeepEqual(ws.Missing, gs.Missing) || !reflect.DeepEqual(ws.IPSValidMonth, gs.IPSValidMonth) {
					t.Fatalf("AS %d: missing rounds or IPS-valid months differ", as.ASN)
				}
				for r := range ws.Missing {
					wb, wf, wi := ws.At(r)
					gb, gf, gi := gs.At(r)
					if math.Float32bits(wb) != math.Float32bits(gb) || math.Float32bits(wf) != math.Float32bits(gf) ||
						math.Float32bits(wi) != math.Float32bits(gi) {
						t.Fatalf("AS %d round %d: (%g, %g, %g), (%g, %g, %g) with garbled missing rounds",
							as.ASN, r, wb, wf, wi, gb, gf, gi)
					}
				}
				if wd, gd := signals.Detect(ws, signals.ASConfig()), signals.Detect(gs, signals.ASConfig()); !reflect.DeepEqual(wd, gd) {
					t.Fatalf("AS %d: verdicts differ with garbled missing rounds:\n%+v\n%+v", as.ASN, wd.Outages, gd.Outages)
				}
			}
		})
	}
}
