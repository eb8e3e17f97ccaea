// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale 0.12] [-interval 6] [-seed 1] [-markdown] [ids...]
//	experiments -scorecard NAME|FILE
//
// With no ids, every registered experiment runs in order. -markdown emits
// the EXPERIMENTS.md paper-vs-measured record instead of full reports.
// -scorecard scores one labelled scenario, a library name or a scenario-DSL
// file, against its ground truth instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"countrymon/internal/experiments"
	"countrymon/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters: the reports go to
// stdout, which is a pure function of args, the per-experiment timings and
// every diagnostic to stderr, and the process exit code is returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.12, "scenario scale (1.0 = paper scale)")
	interval := fs.Int("interval", 6, "probing interval in hours (paper: 2)")
	seed := fs.Uint64("seed", 1, "scenario seed")
	markdown := fs.Bool("markdown", false, "emit EXPERIMENTS.md content")
	scorecard := fs.String("scorecard", "", "score the labelled scenario `name|file` (a library name or a scenario-DSL file): print its P/R/latency table, then its scorecard JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *scorecard != "" {
		if fs.NArg() > 0 {
			fmt.Fprintln(stderr, "-scorecard takes no experiment ids")
			return 2
		}
		return scoreScenario(*scorecard, stdout, stderr)
	}

	var list []experiments.Experiment
	for _, id := range fs.Args() {
		ex, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q\n", id)
			return 2
		}
		list = append(list, ex)
	}

	env := experiments.New(sim.Config{
		Seed:     *seed,
		Scale:    *scale,
		Interval: time.Duration(*interval) * time.Hour,
	})
	if len(list) == 0 {
		list = experiments.All()
		// Running everything: materialize the pipeline up front, so the
		// per-entity detections fill across the worker pool instead of one
		// at a time on first use.
		env.Warm()
	}

	if *markdown {
		emitMarkdown(stdout, env, list, *scale, *interval, *seed)
		return 0
	}
	for _, ex := range list {
		start := time.Now()
		rep := ex.Run(env)
		fmt.Fprintln(stdout, rep.String())
		fmt.Fprintf(stderr, "(%s in %v)\n", ex.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func emitMarkdown(w io.Writer, env *experiments.Env, list []experiments.Experiment, scale float64, interval int, seed uint64) {
	fmt.Fprintln(w, "# EXPERIMENTS — paper vs measured")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Configuration: scale=%.2f, interval=%dh, seed=%d (paper scale is 1.0 at 2h).\n", scale, interval, seed)
	fmt.Fprintln(w, "Absolute counts scale with the simulated address space; *shape* (who wins,")
	fmt.Fprintln(w, "ratios, correlations, crossovers) is the reproduction target. Regenerate with")
	fmt.Fprintln(w, "`go run ./cmd/experiments -markdown`; individual reports (with the rendered")
	fmt.Fprintln(w, "timelines) with `go run ./cmd/experiments <ID>`.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Reading guide — the paper's headline findings and where they reproduce:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "- **Regional classification works** (T3/T5/F5): Kherson's 13 regional ASes and")
	fmt.Fprintln(w, "  Status's 3-Kherson/1-Kyiv block split are recovered; ceased providers are")
	fmt.Fprintln(w, "  detected from lost BGP presence.")
	fmt.Fprintln(w, "- **Power drives non-frontline outages** (F10 vs F26/A2): strong Pearson r for")
	fmt.Fprintln(w, "  our regional signal, weak for the frontline and for IODA-style attribution.")
	fmt.Fprintln(w, "- **Full-block scans widen coverage** (T1/F15/F17): several-fold more ASes with")
	fmt.Fprintln(w, "  detected outages than the Trinocular baseline; IPS▲ dominates FBS■ events.")
	fmt.Fprintln(w, "- **Full-block scans are stabler** (F27/T4): higher SNR than single-probe")
	fmt.Fprintln(w, "  Bayesian inference; E(b) ≥ 3 keeps more blocks measurable than E(b) ≥ 15.")
	fmt.Fprintln(w, "- **The case studies hold** (F11-F14/H4): cable cut (24 ASes), occupation RTT")
	fmt.Fprintln(w, "  detour (+75 ms), dam flood, the seizure's IPS▲-only dip, and the ten-day")
	fmt.Fprintln(w, "  liberation gap with diurnal recovery.")
	fmt.Fprintln(w)
	for _, ex := range list {
		rep := ex.Run(env)
		fmt.Fprintf(w, "## %s — %s\n\n", rep.ID, rep.Title)
		keys := make([]string, 0, len(rep.Metrics))
		for k := range rep.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w, "| metric | measured | paper |")
		fmt.Fprintln(w, "|---|---|---|")
		for _, k := range keys {
			paper := "—"
			if p, ok := rep.PaperValues[k]; ok {
				paper = fmt.Sprintf("%.4g", p)
			}
			fmt.Fprintf(w, "| %s | %.4g | %s |\n", k, rep.Metrics[k], paper)
		}
		fmt.Fprintln(w)
	}
}
