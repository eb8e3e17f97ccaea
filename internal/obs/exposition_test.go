package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden instead of comparing")

// everyShape builds a registry holding every family shape the exporters
// know: plain counters (with and without help), a gauge, observed and empty
// summaries, labelled counters and gauges, a label value that needs
// escaping, and labelled families no child has been resolved in yet.
func everyShape() *Registry {
	reg := NewRegistry()
	reg.Counter("golden_sent_total", "Probes transmitted.").Add(42)
	reg.Counter("golden_bare_total", "").Inc()
	reg.Gauge("golden_round", "Current round.").Set(-7)
	h := reg.Histogram("golden_dur_seconds", "Durations.", 4)
	for _, v := range []float64{9, 0.25, 1.5, 0.125, 3} {
		h.Observe(v)
	}
	reg.Histogram("golden_idle_seconds", "Never observed.", 0)
	rounds := reg.CounterVec("golden_rounds_total", "Rounds by country and outcome.", "country", "outcome")
	rounds.With("UA", "scanned").Add(6)
	rounds.With("UA", "missing").Add(2)
	rounds.With("RO", "scanned").Add(8)
	reg.CounterVec("golden_faults_total", "Faults.", "kind").With("a\\b\"c\nd").Inc()
	health := reg.GaugeVec("golden_health", "Health in permille.", "vantage")
	health.With("v0").Set(750)
	health.With("v1").Set(-3)
	health.With("v2")
	reg.CounterVec("golden_empty_total", "No child resolved.", "kind")
	reg.GaugeVec("golden_empty_gauge", "", "vantage")
	return reg
}

// TestExpositionGolden pins both export formats of every family shape byte
// for byte: the Prometheus text, then the JSON.
func TestExpositionGolden(t *testing.T) {
	reg := everyShape()
	var got bytes.Buffer
	reg.WritePrometheus(&got)
	if err := reg.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from %s (re-run with -update after an intended change)\n--- got ---\n%s\n--- want ---\n%s",
			path, got.Bytes(), want)
	}
}
