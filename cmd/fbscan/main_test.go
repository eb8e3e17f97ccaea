package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		t.Errorf("%s differs from the golden (re-run with -update after an intended change)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// fbscan runs the command in-process and returns its exit code and output.
func fbscan(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestHelpGolden pins the flag table: a new, renamed or re-defaulted flag
// shows up as a golden diff in review.
func TestHelpGolden(t *testing.T) {
	code, stdout, stderr := fbscan("-h")
	if code != 0 || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", code, stdout)
	}
	golden(t, "help.golden", []byte(stderr))
}

// TestOneShotGolden pins the default one-shot scan of the Kherson ASes: the
// per-block table and the stats line, in virtual time.
func TestOneShotGolden(t *testing.T) {
	code, stdout, stderr := fbscan("-scale", "0.02")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	golden(t, "oneshot.golden", []byte(stdout))
}

// TestCampaignFlagsAreGone: fbscan is a one-shot scanner, and a campaign
// flag is a usage error rather than silently ignored.
func TestCampaignFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{
		{"-rounds", "2"},
		{"-checkpoint", "f.cmds"},
		{"-vantages", "3"},
		{"-stream-signals"},
	} {
		code, stdout, stderr := fbscan(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want a flag error (exit 2)", args, code, stdout, stderr)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "raw"},
		{"-at", "yesterday"},
		{"-faults", "blackout=oops"},
		{"not-a-cidr"},
	} {
		if code, _, stderr := fbscan(args...); code != 2 || stderr == "" {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with a message", args, code, stderr)
		}
	}
}

// TestBlackoutFailsCoverage: a scan inside a blackout window sends nothing,
// and a round below -min-coverage is exit 1.
func TestBlackoutFailsCoverage(t *testing.T) {
	code, _, stderr := fbscan("-scale", "0.02", "-faults", "blackout=0s+1h", "91.198.4.0/24")
	if code != 1 || !strings.Contains(stderr, "fbscan: round covered 0.0% of 256 targets") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
}
