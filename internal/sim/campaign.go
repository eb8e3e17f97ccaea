package sim

import "countrymon/internal/netmodel"

// Targets returns the campaign over the whole scenario: every announced prefix
// of Space (ASes in Space order) and each /24 block's origin AS.
func (s *Scenario) Targets() ([]netmodel.Prefix, map[netmodel.BlockID]netmodel.ASN) {
	var prefixes []netmodel.Prefix
	for _, as := range s.Space.ASes() {
		prefixes = append(prefixes, as.Prefixes...)
	}
	origins := make(map[netmodel.BlockID]netmodel.ASN, s.Space.NumBlocks())
	for _, blk := range s.Space.Blocks() {
		origins[blk] = s.Space.OriginOf(blk)
	}
	return prefixes, origins
}

// PreRound returns the function that runs the scenario's world through a
// monitor, to be called before each round is scanned
// (countrymon.RunConfig.PreRound): it feeds setRouted (the monitor's
// SetRouted) the ground-truth routedness and origin of every block of Space
// at the round's start, blocks ascending. A monitor over a subset of Space
// ignores the blocks it does not target. The world's vantage windows are not
// its business: they reach the scan on the wire (Wire).
func (s *Scenario) PreRound(setRouted func(blk netmodel.BlockID, round int, routed bool, origin netmodel.ASN)) func(round int) error {
	return func(round int) error {
		at := s.TL.Time(round)
		for bi, blk := range s.Space.Blocks() {
			setRouted(blk, round, s.BlockStateAt(bi, at).Routed, s.Space.OriginOf(blk))
		}
		return nil
	}
}
