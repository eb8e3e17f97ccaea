package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"countrymon/internal/sim"
)

var (
	envOnce sync.Once
	testEnv *Env
)

func smallEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		testEnv = New(sim.Config{Seed: 42, Scale: 0.05})
	})
	return testEnv
}

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	ex, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	rep := ex.Run(smallEnv(t))
	if rep == nil || len(rep.Lines) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	if rep.ID != id {
		t.Fatalf("%s returned report ID %s", id, rep.ID)
	}
	return rep
}

// TestRegistryComplete: the registry holds exactly the paper's tables T1–T5,
// figures F1–F28 and headlines H1–H4 plus the ablations A1–A6, each once.
func TestRegistryComplete(t *testing.T) {
	want := map[string]bool{}
	for prefix, n := range map[string]int{"T": 5, "F": 28, "H": 4, "A": 6} {
		for i := 1; i <= n; i++ {
			want[prefix+strconv.Itoa(i)] = true
		}
	}
	seen := map[string]bool{}
	for _, ex := range All() {
		if !want[ex.ID] {
			t.Errorf("registry holds unexpected experiment %s", ex.ID)
		}
		if seen[ex.ID] {
			t.Errorf("experiment %s registered twice", ex.ID)
		}
		seen[ex.ID] = true
	}
	for id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in short mode")
	}
	for _, ex := range All() {
		rep := ex.Run(smallEnv(t))
		if rep == nil || len(rep.Lines) == 0 {
			t.Errorf("%s produced no output", ex.ID)
			continue
		}
		if !strings.Contains(rep.String(), ex.ID) {
			t.Errorf("%s render missing ID", ex.ID)
		}
	}
}

func TestTable5Accuracy(t *testing.T) {
	rep := runExp(t, "T5")
	if acc := rep.Metrics["classification_accuracy"]; acc < 0.9 {
		t.Errorf("Kherson classification accuracy = %.2f, want ≥ 0.9", acc)
	}
	if got := rep.Metrics["ceased_ases_detected"]; got < 5 {
		t.Errorf("ceased ASes detected = %.0f, want ≈7", got)
	}
}

func TestChurnShape(t *testing.T) {
	rep := runExp(t, "F1")
	if v := rep.Metrics["luhansk_change_pct"]; v > -35 {
		t.Errorf("Luhansk change = %.0f%%, want strongly negative", v)
	}
	if v := rep.Metrics["kherson_change_pct"]; v > -35 {
		t.Errorf("Kherson change = %.0f%%, want strongly negative", v)
	}
	if v := rep.Metrics["chernihiv_change_pct"]; v < 0 {
		t.Errorf("Chernihiv change = %.0f%%, want positive", v)
	}
}

func TestPowerCorrelationShape(t *testing.T) {
	ours := runExp(t, "F10")
	ioda := runExp(t, "F26")
	rOurs := ours.Metrics["pearson_nonfrontline"]
	rIODA := ioda.Metrics["ioda_pearson_nonfrontline"]
	if rOurs < 0.4 {
		t.Errorf("our non-frontline power correlation = %.2f, want strong (paper 0.725)", rOurs)
	}
	if rOurs <= rIODA {
		t.Errorf("regional classification must beat IODA: ours %.2f vs IODA %.2f", rOurs, rIODA)
	}
	if fl := ours.Metrics["pearson_frontline"]; fl >= rOurs {
		t.Errorf("frontline correlation %.2f should be below non-frontline %.2f", fl, rOurs)
	}
}

func TestCoverageShape(t *testing.T) {
	rep := runExp(t, "F15")
	ours := rep.Metrics["ases_with_outages_ours"]
	ioda := rep.Metrics["ases_with_outages_ioda"]
	if ours <= ioda {
		t.Errorf("our AS coverage (%f) must exceed IODA's (%f), as in Fig 15", ours, ioda)
	}
	if ours < 3*ioda {
		t.Logf("note: coverage ratio %.1f below the paper's ~5x (scale-dependent)", ours/ioda)
	}
}

func TestSignalSharesShape(t *testing.T) {
	rep := runExp(t, "F17")
	if rep.Metrics["ours_ips_outages"] <= rep.Metrics["ours_fbs_outages"] {
		t.Errorf("IPS▲ should dominate FBS■ outages (paper: 21,120 vs 2,063): %v", rep.Metrics)
	}
}

func TestStabilityShape(t *testing.T) {
	rep := runExp(t, "F27")
	if rep.Metrics["snr_ours"] <= rep.Metrics["snr_trinocular"] {
		t.Errorf("our signal should be more stable: ours %.1f vs trin %.1f",
			rep.Metrics["snr_ours"], rep.Metrics["snr_trinocular"])
	}
}

func TestStatusCaseStudies(t *testing.T) {
	f13 := runExp(t, "F13")
	if ips := f13.Metrics["ips_min_ratio"]; ips > 0.85 {
		t.Errorf("seizure IPS dip ratio = %.2f, want < 0.85", ips)
	}
	if bgp := f13.Metrics["bgp_min_ratio"]; bgp < 0.95 {
		t.Errorf("seizure must not move BGP: ratio %.2f", bgp)
	}
	f14 := runExp(t, "F14")
	if gap := f14.Metrics["kherson_block_gap_days"]; gap < 7 || gap > 14 {
		t.Errorf("liberation gap = %.1f days, want ≈10", gap)
	}
	if f14.Metrics["kyiv_block_stayed_up"] != 1 {
		t.Error("Kyiv block must stay up")
	}
	if ratio := f14.Metrics["recovery_day_night_ratio"]; ratio < 1.5 {
		t.Errorf("diurnal recovery ratio = %.1f, want > 1.5", ratio)
	}
}

func TestKhersonEvents(t *testing.T) {
	rep := runExp(t, "F11")
	if v := rep.Metrics["cable_cut_ases"]; v < 15 {
		t.Errorf("cable-cut affected ASes = %.0f, want ≈24", v)
	}
	if v := rep.Metrics["dam_window_ases"]; v < 2 {
		t.Errorf("dam-window affected ASes = %.0f, want ≥ 2", v)
	}
}

func TestSensitivityMonotone(t *testing.T) {
	rep := runExp(t, "F22")
	if rep.Metrics["count_strict_0.9"] > rep.Metrics["count_default_0.7"] ||
		rep.Metrics["count_default_0.7"] > rep.Metrics["count_relaxed_0.5"] {
		t.Errorf("regional AS counts not monotone: %v", rep.Metrics)
	}
}

func TestRIPEShape(t *testing.T) {
	rep := runExp(t, "F18")
	if v := rep.Metrics["recoded_prefix_frac"]; v < 0.06 || v > 0.2 {
		t.Errorf("recoded fraction = %.2f, want ≈0.12", v)
	}
	if v := rep.Metrics["recoded_to_ru_share"]; v < 0.15 || v > 0.5 {
		t.Errorf("RU share of recodes = %.2f, want ≈0.31", v)
	}
}

func TestChurnAttribution(t *testing.T) {
	rep := runExp(t, "H2")
	if rep.Metrics["national_isps_among_top4_intra_movers"] < 3 {
		t.Errorf("national ISPs should dominate intra-UA churn: %v", rep.Metrics)
	}
	if rep.Metrics["amazon_takeover_addrs"] == 0 {
		t.Error("no Amazon takeover modelled")
	}
	if v := rep.Metrics["kherson_stayed_frac"]; v > 0.45 {
		t.Errorf("Kherson retained fraction = %.2f, want well below half (paper 0.26)", v)
	}
}

func TestRadiusPrecision(t *testing.T) {
	rep := runExp(t, "H3")
	if rep.Metrics["regional_radius_2022_km"] >= rep.Metrics["regional_radius_2025_km"] {
		t.Error("regional radius should degrade over the war")
	}
	if rep.Metrics["regional_radius_2025_km"] >= rep.Metrics["nonregional_radius_km"] {
		t.Error("regional blocks must stay more precise than non-regional ones")
	}
}
