package fleet

import "countrymon/internal/scanner"

// dropBuffers forgets the campaign's round buffers, so its next round scans
// and merges into RoundData built from nothing, keeps its bookkeeping in
// slices built from nothing and re-probes a suspect set built from nothing —
// a campaign without reuse.
func dropBuffers(c *Campaign) {
	c.shardRD = make([]scanner.RoundData, len(c.shardRD))
	c.corrRD = make([]scanner.RoundData, len(c.corrRD))
	c.merged = scanner.RoundData{}
	c.scratch = newRoundScratch(len(c.shardRD))
}
