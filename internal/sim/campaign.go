package sim

import "countrymon/internal/netmodel"

// Monitor is what a scenario needs of the monitor it scripts: the two calls
// through which ground truth reaches a campaign before each scan.
// *countrymon.Monitor satisfies it.
type Monitor interface {
	MarkMissing() error
	SetRouted(blk netmodel.BlockID, round int, routed bool, origin netmodel.ASN)
}

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

// PreRound returns the function that runs the scenario's world through m, to
// be called before each round is scanned (countrymon.RunConfig.PreRound): a
// round the scenario scripts as a vantage outage is marked missing, and any
// other gets the ground-truth routedness and origin of every block of Space at
// the round's start, blocks ascending. A monitor over a subset of Space
// ignores the blocks it does not target.
func (s *Scenario) PreRound(m Monitor) func(round int) error {
	return func(round int) error {
		if s.Missing[round] {
			return m.MarkMissing()
		}
		at := s.TL.Time(round)
		for bi, blk := range s.Space.Blocks() {
			m.SetRouted(blk, round, s.BlockStateAt(bi, at).Routed, s.Space.OriginOf(blk))
		}
		return nil
	}
}
