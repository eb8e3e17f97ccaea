package main

import (
	"fmt"
	"io"

	"countrymon/internal/scenario"
)

// scoreScenario is -scorecard: it runs one labelled scenario through the
// full detection stack and prints the per-entity P/R/latency table, the
// signal pipeline and the Trinocular baseline side by side, then the
// scorecard's JSON. arg is a library name or a scenario-DSL file; an
// argument that is neither, or a file that does not parse and compile, exits
// 2 with the library (name, days, rounds, description) listed on stderr.
func scoreScenario(arg string, stdout, stderr io.Writer) int {
	spec, err := scenario.Open(arg)
	var compiled *scenario.Compiled
	if err == nil {
		compiled, err = spec.Compile()
	}
	if err != nil {
		fmt.Fprintln(stderr, "-scorecard:", err)
		for _, name := range scenario.Names() {
			if spec, err := scenario.Open(name); err != nil {
				fmt.Fprintf(stderr, "%-20s %v\n", name, err)
			} else {
				fmt.Fprintf(stderr, "%-20s %3dd %4d rounds  %s\n", name, spec.Days, spec.Rounds(), spec.Description)
			}
		}
		return 2
	}
	card, err := compiled.RunScorecard()
	if err != nil {
		fmt.Fprintln(stderr, "-scorecard:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d rounds, %d blocks, %d missing, %d degraded, trinocular tracks %d\n",
		card.Scenario, card.Rounds, card.Blocks, card.MissingRounds, card.DegradedRounds,
		card.TrinocularTracked)
	fmt.Fprintf(stdout, "  %-22s %28s   %28s\n", "", "signals P/R/latency", "trinocular P/R/latency")
	for i, s := range card.Signals {
		t := card.Trinocular[i]
		fmt.Fprintf(stdout, "  %-22s %10.3f /%6.3f /%6.1f   %10.3f /%6.3f /%6.1f\n",
			s.Entity, s.Precision, s.Recall, s.MeanLatencyRounds,
			t.Precision, t.Recall, t.MeanLatencyRounds)
	}
	stdout.Write(card.Encode())
	return 0
}
