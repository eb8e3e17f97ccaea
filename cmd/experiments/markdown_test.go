//go:build !race

package main

import (
	"os"
	"testing"
)

// TestMarkdownMatchesRecord regenerates EXPERIMENTS.md at the default flags
// — every report at the paper-vs-measured record's own scale and interval —
// and holds it to the committed file byte for byte. It is left out of -race
// builds, which multiply the default-size pipeline's cost; TestReportsGolden
// runs every report under the race detector at a smaller size.
func TestMarkdownMatchesRecord(t *testing.T) {
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := exp("-markdown")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("-markdown differs from EXPERIMENTS.md (regenerate with `go run ./cmd/experiments -markdown > EXPERIMENTS.md` after an intended change)\n%s", firstDiff(stdout, string(want)))
	}
}
