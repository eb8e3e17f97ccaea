package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
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

// cm runs the command in-process and returns its exit code and output.
func cm(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// small is the scenario every test here runs on: ≈ 0.3 s for the full
// three-year analysis. daily is the same world on another timeline.
var (
	small = []string{"-scale", "0.02", "-interval", "12"}
	daily = []string{"-scale", "0.02", "-interval", "24"}
)

func with(base []string, more ...string) []string {
	return append(append([]string(nil), base...), more...)
}

// TestHelpGolden pins the flag table: a new, renamed or re-defaulted flag
// shows up as a golden diff in review.
func TestHelpGolden(t *testing.T) {
	code, stdout, stderr := cm("-h")
	if code != 0 || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", code, stdout)
	}
	golden(t, "help.golden", []byte(stderr))
}

// TestAnalysisGolden pins the default mode's report — the per-region table,
// the timeline strip and the Kherson / AS25482 event lists — byte for byte.
func TestAnalysisGolden(t *testing.T) {
	code, stdout, stderr := cm(small...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	golden(t, "analysis.golden", []byte(stdout))
}

// TestPacketRounds: the Monitor-driven campaign, solo and over a healthy
// fleet, must read exactly what the fast generator computed, and then leave
// the analysis report untouched.
func TestPacketRounds(t *testing.T) {
	for _, args := range [][]string{
		with(small, "-packet-rounds", "4"),
		with(small, "-packet-rounds", "4", "-vantages", "3"),
	} {
		code, stdout, stderr := cm(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr)
		}
		for _, want := range []string{
			"round   3: sent 86016 valid",
			"  1344 block-rounds cross-checked, 0 mismatches (scanner vs fast generator)\n",
			"campaign complete: all 4 rounds at full coverage\n",
		} {
			if !strings.Contains(stderr, want) {
				t.Errorf("%v: stderr lacks %q:\n%s", args, want, stderr)
			}
		}
		golden(t, "analysis.golden", []byte(stdout))
	}
}

// TestFleetCompletesDegraded blacks out one of three vantages for rounds 2
// to 6 (-faults with one profile per vantage, the others clean): the fleet
// steals its shards and quarantines it, no block reads differently from the
// fast generator, and the process says so with exit 4. Rounds 7 to 10 are a
// vantage outage the scenario scripts, on the wire of every vantage: each is
// a fleet self-outage, held against nobody's coverage and charged to no
// breaker, so round 11 is scanned again.
func TestFleetCompletesDegraded(t *testing.T) {
	dir := t.TempDir()
	faulted, clean := filepath.Join(dir, "faulted.cmds"), filepath.Join(dir, "clean.cmds")
	code, _, stderr := cm(with(small, "-packet-rounds", "12", "-vantages", "3", "-quorum", "2",
		"-faults", "blackout=20h+60h;;", "-checkpoint", faulted)...)
	if code != 4 {
		t.Fatalf("exit %d, want 4 (completed degraded)\n%s", code, stderr)
	}
	for _, want := range []string{
		"fleet fusion: ", " 19 steals\n",
		"round   7: sent 0 valid 0  [fleet self-outage: recorded missing]\n",
		"round  11: sent 86016 valid ",
		", 0 mismatches (",
		"countrymon: campaign completed degraded: quarantined=[v0] degraded_rounds=4 self_outages=4\n",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	// Zero false outages: the checkpoint equals a single clean vantage's,
	// and both are pinned by digest.
	code, _, stderr = cm(with(small, "-packet-rounds", "12", "-checkpoint", clean)...)
	if want := "countrymon: campaign completed degraded: quarantined=[] degraded_rounds=4 self_outages=4\n"; code != 4 ||
		!strings.Contains(stderr, want) {
		t.Fatalf("clean run: exit %d, want 4 and %q\n%s", code, want, stderr)
	}
	sameFile(t, faulted, clean)
	data, err := os.ReadFile(faulted)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "checkpoint12.sha256", []byte(fmt.Sprintf("%x\n", sha256.Sum256(data))))
}

// TestFleetSelfOutage blacks out every vantage of a fleet for rounds 2 to 6
// with one -faults profile, which applies to each of them: no vantage has
// data on those rounds, so each is recorded missing as a fleet self-outage —
// labelled so, not as a dead receive path — and counts against coverage
// (exit 1). So are rounds 7 to 10, the scenario's own vantage outage, which
// count against nothing. A self-outage charges no breaker, so three
// vantages, like one, scan round 11 again and read 5 low rounds.
func TestFleetSelfOutage(t *testing.T) {
	for _, vantages := range []string{"1", "3"} {
		code, _, stderr := cm(with(small, "-packet-rounds", "12", "-vantages", vantages,
			"-faults", "blackout=20h+60h")...)
		if code != 1 || strings.Contains(stderr, "receive path dead") ||
			!strings.Contains(stderr, "countrymon: 5 of 12 rounds ended below the 80% coverage threshold") {
			t.Fatalf("-vantages %s: exit %d, want 1 with 5 low rounds, stderr:\n%s", vantages, code, stderr)
		}
		for r := 2; r <= 10; r++ {
			want := fmt.Sprintf("round %3d: sent 0 valid 0  [fleet self-outage: recorded missing]\n", r)
			if !strings.Contains(stderr, want) {
				t.Errorf("-vantages %s: stderr lacks %q:\n%s", vantages, want, stderr)
			}
		}
		if want := "round  11: sent 86016 valid "; !strings.Contains(stderr, want) {
			t.Errorf("-vantages %s: stderr lacks %q:\n%s", vantages, want, stderr)
		}
	}
}

// TestSoloBlackoutFailsCoverage: with one vantage there is nobody to steal
// the blacked-out rounds, so each is a self-outage of the fleet of one,
// recorded missing, and a round below -min-coverage is exit 1.
func TestSoloBlackoutFailsCoverage(t *testing.T) {
	code, _, stderr := cm(with(small, "-packet-rounds", "6", "-faults", "seed=7,blackout=40h+30h")...)
	if code != 1 || !strings.Contains(stderr, "round   5: sent 0 valid 0  [fleet self-outage: recorded missing]\n") ||
		!strings.Contains(stderr, "countrymon: 2 of 6 rounds ended below the 80% coverage threshold") {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
}

// interruptAt is a stderr that sends the process SIGINT the first time a log
// line contains mark — the campaign's Ctrl-C, delivered at a known round.
type interruptAt struct {
	bytes.Buffer
	mark      string
	delivered chan os.Signal // the test's own subscription to SIGINT
	sent      bool
}

func (w *interruptAt) Write(p []byte) (int, error) {
	if !w.sent && bytes.Contains(p, []byte(w.mark)) {
		w.sent = true
		syscall.Kill(os.Getpid(), syscall.SIGINT)
		// Round lines are written on the campaign goroutine: hold it until
		// the process has taken the signal, which is when run's context gets
		// it too. The rounds left after mark absorb the goroutine hand-off.
		<-w.delivered
	}
	return w.Buffer.Write(p)
}

// TestInterruptResume interrupts a journalled, checkpointed campaign after
// round 20, resumes it from the checkpoint and the journal, and requires the
// final checkpoint byte-identical to an uninterrupted run's. The campaign
// crosses the scenario's vantage outages, which the vantage measures as
// self-outages: a whole run completes degraded (exit 4).
func TestInterruptResume(t *testing.T) {
	dir := t.TempDir()
	ref, ckpt, journal := filepath.Join(dir, "ref.cmds"), filepath.Join(dir, "k.cmds"), filepath.Join(dir, "k.cmrl")
	campaign := with(small, "-packet-rounds", "36")
	if code, _, stderr := cm(with(campaign, "-checkpoint", ref)...); code != 4 {
		t.Fatalf("reference run: exit %d, want 4\n%s", code, stderr)
	}

	stderr := &interruptAt{mark: "round  20:", delivered: make(chan os.Signal, 1)}
	signal.Notify(stderr.delivered, os.Interrupt)
	defer signal.Stop(stderr.delivered)
	code := run(with(campaign, "-checkpoint", ckpt, "-roundlog", journal), io.Discard, stderr)
	if code != 130 || !strings.Contains(stderr.String(), "countrymon: interrupted at round ") ||
		!strings.Contains(stderr.String(), "(checkpoint written to "+ckpt+")") {
		t.Fatalf("interrupted run: exit %d, want 130\n%s", code, stderr)
	}
	if strings.Contains(stderr.String(), "round  35:") {
		t.Fatalf("the interrupt did not stop the campaign:\n%s", stderr)
	}

	code, _, out := cm(with(campaign, "-checkpoint", ckpt, "-resume", ckpt, "-roundlog", journal)...)
	if code != 4 || !strings.Contains(out, "resumed from "+ckpt+" at round ") ||
		strings.Contains(out, "round  20:") {
		t.Fatalf("resumed run: exit %d (it must not rescan round 20)\n%s", code, out)
	}
	sameFile(t, ckpt, ref)
}

// TestCoordinatedInterrupt: a SIGINT during a coordinated campaign stops it
// at the next round boundary with exit 130, like -packet-rounds, and prints
// no per-country summary.
func TestCoordinatedInterrupt(t *testing.T) {
	stderr := &interruptAt{mark: "coordinated campaign:", delivered: make(chan os.Signal, 1)}
	signal.Notify(stderr.delivered, os.Interrupt)
	defer signal.Stop(stderr.delivered)
	code := run([]string{"-countries", "UA,RO"}, io.Discard, stderr)
	if code != 130 || !strings.Contains(stderr.String(), "countrymon: interrupted at round ") ||
		strings.Contains(stderr.String(), "AS outage events") {
		t.Fatalf("interrupted run: exit %d, want 130\n%s", code, stderr)
	}
}

// TestForeignFilesAreRefused: a checkpoint or dataset of another campaign —
// here another -interval, another -scale — is exit 3 with both sides of the
// conflict named, not a plausible report about the wrong world.
func TestForeignFilesAreRefused(t *testing.T) {
	dir := t.TempDir()
	ckpt, data := filepath.Join(dir, "c.cmds"), filepath.Join(dir, "d.cmds")
	if code, _, stderr := cm(with(small, "-packet-rounds", "2", "-checkpoint", ckpt, "-save", data)...); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}

	code, stdout, stderr := cm(with(daily, "-packet-rounds", "2", "-resume", ckpt)...)
	if code != 3 || stdout != "" || !strings.Contains(stderr,
		"checkpoint timeline 2022-03-02T22:00:00Z+12h0m0s×2 does not match campaign 2022-03-02T22:00:00Z+24h0m0s×2") {
		t.Errorf("-resume of a 12 h checkpoint into a 24 h campaign: exit %d, stdout %q\n%s", code, stdout, stderr)
	}

	code, stdout, stderr = cm("-scale", "0.03", "-interval", "12", "-load", data)
	if code != 3 || stdout != "" || !strings.Contains(stderr, "checkpoint has 933 blocks, campaign has 1215") {
		t.Errorf("-load of a scale-0.02 dataset at scale 0.03: exit %d, stdout %q\n%s", code, stdout, stderr)
	}
	code, stdout, stderr = cm(with(daily, "-load", data)...)
	if code != 3 || stdout != "" || !strings.Contains(stderr, "does not match campaign") {
		t.Errorf("-load of a 12 h dataset at -interval 24: exit %d, stdout %q\n%s", code, stdout, stderr)
	}

	// The same file against its own world loads and reports as generated.
	code, stdout, stderr = cm(with(small, "-load", data)...)
	if code != 0 {
		t.Errorf("-load round trip: exit %d\n%s", code, stderr)
	}
	golden(t, "analysis.golden", []byte(stdout))
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-stream-signals"},
		{"-checkpoint", "f.cmds"},
		{"-vantages", "3"},
		{"-packet-rounds", "2", "-faults", "blackout=1h+1h;"},
		{"-packet-rounds", "2", "-vantages", "2", "-faults", "a;b;c"},
		{"-packet-rounds", "2", "-vantages", "2", "-faults", "blackout=1h+1h;;"},
		{"-serve", ":0"},
		{"-countries", "UA", "-config", "spec.json"},
	} {
		args = with(small, args...)
		if code, stdout, stderr := cm(args...); code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with a message", args, code, stdout, stderr)
		}
	}
}

func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s (%d bytes) differs from %s (%d bytes)", got, len(g), want, len(w))
	}
}
