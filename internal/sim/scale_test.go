package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// worldHash identifies what Build generated: every AS with its prefixes and
// activity bounds, and every block's traits, in Space order.
func worldHash(s *Scenario) string {
	h := sha256.New()
	for _, as := range s.Space.ASes() {
		tr := s.ASTraitsOf(as.ASN)
		fmt.Fprintf(h, "%d %q %v %v %v %v %v %v\n", as.ASN, as.Name, as.HQ, as.Foreign, as.Prefixes,
			tr.National, tr.ActiveFrom.Unix(), tr.ActiveTo.Unix())
	}
	for _, bt := range s.Blocks() {
		fmt.Fprintf(h, "%+v\n", bt)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestBuildAtPaperScale: the synthetic AS ranges step over the numbers the
// named tables own, so the scale Config.Scale calls the paper's builds —
// before, every Scale from ≈ 0.85 up failed with "duplicate AS 49168".
func TestBuildAtPaperScale(t *testing.T) {
	for _, scale := range []float64{0.9, 1.0} {
		if scale == 1.0 && testing.Short() {
			continue
		}
		s, err := Build(Config{Seed: 1, Scale: scale})
		if err != nil {
			t.Fatalf("Scale %v: %v", scale, err)
		}
		seen := make(map[uint32]bool)
		for _, as := range s.Space.ASes() {
			if seen[uint32(as.ASN)] {
				t.Fatalf("Scale %v: AS %d built twice", scale, as.ASN)
			}
			seen[uint32(as.ASN)] = true
		}
		if !seen[49168] || !seen[49169] {
			t.Errorf("Scale %v: want Table 5's AS 49168 and its synthetic neighbour 49169 both present", scale)
		}
		t.Logf("Scale %v: %d ASes, %d blocks", scale, s.Space.NumASes(), s.Space.NumBlocks())
		if scale == 1.0 {
			if n := s.Space.NumASes(); n < 1800 || n > 2200 {
				t.Errorf("Scale 1: %d ASes, want ≈ 2,000", n)
			}
			if n := s.Space.NumBlocks(); n < 31000 || n > 38000 {
				t.Errorf("Scale 1: %d blocks, want ≈ 35K", n)
			}
		}
	}
}

// TestDefaultScaleWorldUnchanged: no number is stepped over at a scale that
// built before, so those worlds are what they were (the hash was taken on the
// commit before the allocators learned to skip).
func TestDefaultScaleWorldUnchanged(t *testing.T) {
	s := MustBuild(Config{Seed: 1, Scale: 0.12})
	if got, want := worldHash(s), "db47bf4e672af151"; got != want {
		t.Fatalf("seed-1 Scale 0.12 world hashes to %s, on the parent %s", got, want)
	}
}
