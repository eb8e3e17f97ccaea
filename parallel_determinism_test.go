package countrymon

import (
	"bytes"
	"testing"

	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/regional"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
	"countrymon/internal/trinocular"
)

// The parallel pipeline's contract is that the worker count changes when
// work happens, never what is computed: every sharded hot path must produce
// results identical to the sequential evaluation. These tests pin that down
// by running the same small campaign under COUNTRYMON_WORKERS=1 and =8 and
// comparing outputs byte-for-byte (store) and value-for-value (everything
// else).

func detCfg() sim.Config { return sim.Config{Seed: 1, Scale: 0.02} }

// detPipeline materializes the full analysis pipeline at the given worker
// count and returns its pieces.
type detPipe struct {
	storeBytes []byte
	res        *regional.Result
	asSeries   map[netmodel.ASN]*signals.EntitySeries
	regSeries  map[netmodel.Region]*signals.EntitySeries
	trin       *trinocular.Result
}

func buildDetPipe(t *testing.T, workers string) *detPipe {
	t.Helper()
	t.Setenv(par.EnvWorkers, workers)
	sc := sim.MustBuild(detCfg())
	store := sc.GenerateStore(nil)
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cl := regional.NewClassifier(sc.Space, sc.GeoDB(), store)
	res := cl.ClassifyAll(regional.DefaultParams())
	b := signals.NewBuilder(store, sc.Space)
	p := &detPipe{
		storeBytes: buf.Bytes(),
		res:        res,
		asSeries:   make(map[netmodel.ASN]*signals.EntitySeries),
		regSeries:  make(map[netmodel.Region]*signals.EntitySeries),
	}
	for _, as := range sc.Space.ASes() {
		p.asSeries[as.ASN] = b.AS(as.ASN)
	}
	for _, r := range netmodel.Regions() {
		p.regSeries[r] = b.Region(res.Regions[r], cl)
	}
	probe := sc.RecordedProbe(store)
	runner := trinocular.NewRunner(store, sc.Space, sc.Representatives, probe)
	p.trin = runner.Run(probe)
	return p
}

func sameSeries(t *testing.T, name string, a, b *signals.EntitySeries) {
	t.Helper()
	for r := range a.BGP.Len() {
		if a.BGP.At(r) != b.BGP.At(r) || a.FBS.At(r) != b.FBS.At(r) || a.IPS.At(r) != b.IPS.At(r) {
			t.Fatalf("%s: series differ at round %d: (%v %v %v) vs (%v %v %v)",
				name, r, a.BGP.At(r), a.FBS.At(r), a.IPS.At(r), b.BGP.At(r), b.FBS.At(r), b.IPS.At(r))
		}
	}
	for m := range a.IPSValidMonth {
		if a.IPSValidMonth[m] != b.IPSValidMonth[m] {
			t.Fatalf("%s: IPS validity differs in month %d", name, m)
		}
	}
}

func TestParallelPipelineMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline twice")
	}
	seq := buildDetPipe(t, "1")
	parl := buildDetPipe(t, "8")

	// Store: byte-identical.
	if !bytes.Equal(seq.storeBytes, parl.storeBytes) {
		t.Fatal("parallel GenerateStore produced a store differing from the sequential one")
	}

	// Classification: identical verdicts per region.
	for r, srr := range seq.res.Regions {
		prr := parl.res.Regions[r]
		if len(srr.AS) != len(prr.AS) || len(srr.Blocks) != len(prr.Blocks) {
			t.Fatalf("%s: classification sizes differ (%d/%d AS, %d/%d blocks)",
				r, len(srr.AS), len(prr.AS), len(srr.Blocks), len(prr.Blocks))
		}
		for asn, c := range srr.AS {
			if prr.AS[asn] != c {
				t.Fatalf("%s AS%d: class %v (seq) vs %v (parallel)", r, asn, c, prr.AS[asn])
			}
		}
		for i, bc := range srr.Blocks {
			pc := prr.Blocks[i]
			if bc.Index != pc.Index || bc.Regional != pc.Regional || bc.MeanShare != pc.MeanShare {
				t.Fatalf("%s block %d: verdict differs", r, bc.Index)
			}
		}
	}

	// Signal series: bit-identical floats (same accumulation order).
	for asn, es := range seq.asSeries {
		sameSeries(t, es.Name, es, parl.asSeries[asn])
	}
	for r, es := range seq.regSeries {
		sameSeries(t, es.Name, es, parl.regSeries[r])
	}

	// Trinocular: identical states and probe counts.
	if seq.trin.ProbesSent != parl.trin.ProbesSent {
		t.Fatalf("probes sent: %d (seq) vs %d (parallel)", seq.trin.ProbesSent, parl.trin.ProbesSent)
	}
	if len(seq.trin.States) != len(parl.trin.States) {
		t.Fatalf("tracked blocks: %d (seq) vs %d (parallel)", len(seq.trin.States), len(parl.trin.States))
	}
	for ti := range seq.trin.States {
		if seq.trin.Blocks[ti] != parl.trin.Blocks[ti] {
			t.Fatalf("tracker %d follows different blocks", ti)
		}
		for r, s := range seq.trin.States[ti] {
			if parl.trin.States[ti][r] != s {
				t.Fatalf("tracker %d round %d: state %v (seq) vs %v (parallel)", ti, r, s, parl.trin.States[ti][r])
			}
		}
	}
	for asn, ss := range seq.trin.PerAS {
		ps := parl.trin.PerAS[asn]
		for r := range ss {
			if ss[r] != ps[r] {
				t.Fatalf("TRIN AS%d round %d: %v (seq) vs %v (parallel)", asn, r, ss[r], ps[r])
			}
		}
	}
}

// TestParallelStoreRepeatable re-runs the parallel generator and demands
// byte-identical output across runs (no scheduling leakage).
func TestParallelStoreRepeatable(t *testing.T) {
	t.Setenv(par.EnvWorkers, "") // default worker count
	gen := func() []byte {
		sc := sim.MustBuild(detCfg())
		var buf bytes.Buffer
		if _, err := sc.GenerateStore(nil).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := gen()
	for i := 0; i < 2; i++ {
		if !bytes.Equal(first, gen()) {
			t.Fatalf("run %d produced different store bytes", i+2)
		}
	}
}
