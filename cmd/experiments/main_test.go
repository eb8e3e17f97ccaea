package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"countrymon/internal/par"
	"countrymon/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ instead of comparing")

// golden compares got with testdata/<name>, or rewrites the file under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (re-run with -update after an intended change)\n%s", name, firstDiff(string(got), string(want)))
	}
}

// firstDiff names the first line on which two outputs part: the reports run
// to a thousand lines, too many to print twice.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// exp runs the command in-process and returns its exit code and output.
func exp(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestHelpGolden pins the flag table: a new, renamed or re-defaulted flag
// shows up as a golden diff in review.
func TestHelpGolden(t *testing.T) {
	code, stdout, stderr := exp("-h")
	if code != 0 || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", code, stdout)
	}
	golden(t, "help.golden", []byte(stderr))
}

func TestUnknownExperiment(t *testing.T) {
	code, stdout, stderr := exp("T1", "no-such-id")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `unknown experiment "no-such-id"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 with a message", code, stdout, stderr)
	}
}

// TestReportsGolden pins every report of a full run byte for byte, and that
// stdout depends on nothing but the flags: not on the run (Go's map order),
// not on the worker count, and not on how long an experiment took.
func TestReportsGolden(t *testing.T) {
	all := func() string {
		t.Helper()
		code, stdout, stderr := exp("-scale", "0.02", "-interval", "12")
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr)
		}
		return stdout
	}
	first := all()
	golden(t, "reports.golden", []byte(first))
	if again := all(); again != first {
		t.Errorf("two runs of the same flags differ\n%s", firstDiff(again, first))
	}
	t.Setenv(par.EnvWorkers, "1")
	if serial := all(); serial != first {
		t.Errorf("%s=1 changes the reports\n%s", par.EnvWorkers, firstDiff(serial, first))
	}
}

// TestScorecard pins -scorecard: a library name prints the P/R/latency table
// and then the scorecard's JSON, which is the committed golden scorecard byte
// for byte; the scenario's file prints the same; and a name that is neither
// exits 2 with the library listed on stderr.
func TestScorecard(t *testing.T) {
	code, stdout, stderr := exp("-scorecard", "ixp-failover")
	if code != 0 {
		t.Fatalf("-scorecard ixp-failover: exit %d\n%s", code, stderr)
	}
	golden(t, "scorecard.golden", []byte(stdout))
	want, err := os.ReadFile("../../internal/scenario/testdata/ixp-failover.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if i := strings.Index(stdout, "\n{\n"); i < 0 || stdout[i+1:] != string(want) {
		t.Errorf("the JSON after the table is not the golden scorecard\n%s", stdout)
	}

	code, fromFile, stderr := exp("-scorecard", "../../internal/scenario/library/ixp-failover.json")
	if code != 0 || fromFile != stdout {
		t.Errorf("the scenario's file: exit %d, stdout differs from the library name's: %v\n%s", code, fromFile != stdout, stderr)
	}

	code, stdout, stderr = exp("-scorecard", "no-such-scenario")
	if code != 2 || stdout != "" {
		t.Fatalf("unknown scenario: exit %d, stdout %q; want exit 2 and no stdout", code, stdout)
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(stderr, name) {
			t.Errorf("unknown scenario: stderr does not list %s\n%s", name, stderr)
		}
	}
}
