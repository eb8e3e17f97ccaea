package ripe

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"countrymon/internal/netmodel"
)

// TestQuickParseNeverPanics feeds arbitrary text to the parser.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(lines []string) bool {
		in := strings.Join(lines, "\n")
		_, err := Parse(strings.NewReader(in))
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWriteParseRoundTrip fuzzes random files through the text format.
func TestQuickWriteParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ccs := []string{"UA", "RU", "PL", "CZ", "DE", "US"}
	for trial := 0; trial < 60; trial++ {
		f := &File{}
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			f.Records = append(f.Records, Record{
				Registry: "ripencc",
				CC:       ccs[rng.Intn(len(ccs))],
				Type:     "ipv4",
				Start:    netmodel.Addr(rng.Uint32() &^ 0xff),
				Count:    uint64(1) << uint(rng.Intn(12)+4),
				Date:     time.Date(1995+rng.Intn(30), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
				Status:   []string{StatusAllocated, StatusAssigned}[rng.Intn(2)],
			})
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != len(f.Records) {
			t.Fatalf("trial %d: %d vs %d records", trial, len(got.Records), len(f.Records))
		}
		for i := range got.Records {
			if got.Records[i] != f.Records[i] {
				t.Fatalf("trial %d: record %d: %+v vs %+v", trial, i, got.Records[i], f.Records[i])
			}
		}
		// Diff of a file against itself is all-kept.
		for _, cc := range ccs {
			d := DiffCountry(f, got, cc)
			if d.Withdrawn != 0 || d.Added != 0 || d.RecodedTotal() != 0 {
				t.Fatalf("trial %d: self-diff not clean for %s: %+v", trial, cc, d)
			}
		}
	}
}
