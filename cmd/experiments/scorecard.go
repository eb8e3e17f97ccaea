package main

import (
	"fmt"
	"io"
	"os"

	"countrymon/internal/scenario"
)

// scoreScenario is -scorecard: it runs one labelled scenario through the
// full detection stack and prints the per-entity P/R/latency table, the
// signal pipeline and the Trinocular baseline side by side, then the
// scorecard's JSON. arg is a library name or a scenario-DSL file; an
// argument that is neither, or a file that does not parse and compile, exits
// 2 with the library (name, days, rounds, description) listed on stderr.
func scoreScenario(arg string, stdout, stderr io.Writer) int {
	compiled, err := loadScenario(arg)
	if err != nil {
		fmt.Fprintln(stderr, "-scorecard:", err)
		for _, name := range scenario.Names() {
			if spec, err := scenario.Load(name); err != nil {
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

// loadScenario compiles the library scenario named arg or, when no library
// scenario has that name, the scenario-DSL file at path arg.
func loadScenario(arg string) (*scenario.Compiled, error) {
	data, err := scenario.Source(arg)
	if err != nil {
		if data, err = os.ReadFile(arg); err != nil {
			return nil, fmt.Errorf("%q names no library scenario (listed below) and no readable file: %w", arg, err)
		}
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	return spec.Compile()
}
