package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"countrymon/internal/signals"
)

var update = flag.Bool("update", false, "rewrite the golden scorecards under testdata/ instead of comparing")

func runScorecard(t *testing.T, name string) *Scorecard {
	t.Helper()
	spec, err := Open(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	card, err := c.RunScorecard()
	if err != nil {
		t.Fatal(err)
	}
	return card
}

// TestScorecardsMatchGoldens is the engine-regression tripwire: any change to
// the scanner, signal derivation, detection thresholds, coverage gating or
// the Trinocular baseline that shifts detection quality on a labeled
// adversity shows up as a byte diff against the committed scorecard. Under
// -update it rewrites the goldens instead (`make scorecards`).
func TestScorecardsMatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection stack over the scenario library")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			got := runScorecard(t, name).Encode()
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `make scorecards`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("scorecard diverged from %s\ngot:\n%s\nwant:\n%s\n(run `make scorecards` if the change is intended)",
					path, got, want)
			}
		})
	}
}

// TestScorecardWorkerDeterminism pins the byte-identity guarantee the goldens
// rest on: the scorecard must not depend on the worker-pool width.
func TestScorecardWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario campaign twice")
	}
	t.Setenv("COUNTRYMON_WORKERS", "1")
	one := runScorecard(t, "ixp-failover").Encode()
	t.Setenv("COUNTRYMON_WORKERS", "5")
	five := runScorecard(t, "ixp-failover").Encode()
	if !bytes.Equal(one, five) {
		t.Fatalf("scorecard depends on COUNTRYMON_WORKERS:\n1 worker:\n%s\n5 workers:\n%s", one, five)
	}
}

// TestScorecardScoring pins the scorer's conventions on a hand-built flag
// series: warmup exclusion, slack neutrality, benign false positives and
// latency accounting.
func TestScorecardScoring(t *testing.T) {
	spec, err := Parse([]byte(compileDoc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rounds := spec.Rounds()
	effMissing := make([]bool, rounds)
	warmup, slack := 6, 3

	// as:64500 truth: silent event rounds 180..186, power strike days
	// 20..22 → rounds 120..132.
	mk := func(set ...int) []signals.Kind {
		out := make([]signals.Kind, rounds)
		for _, r := range set {
			out[r] = signals.SignalFBS
		}
		return out
	}

	// Detection at outage onset (round 180) plus one flag in the slack tail
	// (neutral) and one unlabeled false positive at round 50.
	score := c.scoreEntity(ASEntity(64500), mk(50, 121, 180, 186+1), effMissing, warmup, slack)
	if score.Windows != 2 || score.Detected != 2 {
		t.Fatalf("windows/detected = %d/%d, want 2/2", score.Windows, score.Detected)
	}
	if score.TruePosRounds != 2 { // rounds 121 and 180
		t.Fatalf("TP rounds = %d, want 2", score.TruePosRounds)
	}
	if score.FalsePosRounds != 1 { // round 50 only; 187 is slack
		t.Fatalf("FP rounds = %d, want 1", score.FalsePosRounds)
	}
	if score.Recall != 1 || score.Precision != round4(2.0/3.0) {
		t.Fatalf("P/R = %g/%g", score.Precision, score.Recall)
	}
	// Latency: strike window detected at 121 (onset 120), event at onset.
	if score.MeanLatencyRounds != 0.5 {
		t.Fatalf("latency = %g", score.MeanLatencyRounds)
	}

	// Flags before warmup or on missing rounds never count.
	effMissing[50] = true
	score = c.scoreEntity(ASEntity(64500), mk(3, 50), effMissing, warmup, slack)
	if score.FalsePosRounds != 0 || score.Detected != 0 {
		t.Fatalf("warmup/missing flags counted: %+v", score)
	}
	if score.Recall != 0 || score.MeanLatencyRounds != -1 {
		t.Fatalf("undetected conventions: %+v", score)
	}
}
