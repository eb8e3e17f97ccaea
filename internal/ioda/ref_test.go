package ioda

import (
	"countrymon/internal/netmodel"
	"countrymon/internal/signals"
)

// The oracle: ASSeries and RegionSeries as they were before the routed
// bitsets were read a word at a time, one Store.Routed test per measured
// (block, round). The bodies are kept verbatim; only the names changed.

func (p *Platform) refASSeries(asn netmodel.ASN) *signals.EntitySeries {
	tl := p.store.Timeline()
	rounds := tl.NumRounds()
	es := signals.NewSeries("IODA/"+asn.String(), tl, p.store.MissingRounds()) // IPS never valid
	if trin := p.trin.PerAS[asn]; trin != nil {
		for r, v := range trin {
			es.FBS.Set(r, v)
		}
	}
	for bi, blk := range p.store.Blocks() {
		if p.space.OriginOf(blk) != asn {
			continue
		}
		for r := 0; r < rounds; r++ {
			if !es.Missing[r] && p.store.Routed(bi, r) {
				es.BGP.Set(r, es.BGP.At(r)+1)
			}
		}
	}
	return es
}

func (p *Platform) refRegionSeries(region netmodel.Region) *signals.EntitySeries {
	tl := p.store.Timeline()
	rounds := tl.NumRounds()
	es := signals.NewSeries("IODA/"+region.String(), tl, p.store.MissingRounds())
	member := make(map[netmodel.ASN]bool)
	for asn, regions := range p.presence {
		for _, r := range regions {
			if r == region {
				member[asn] = true
			}
		}
	}
	for asn := range member {
		if trin := p.trin.PerAS[asn]; trin != nil {
			for r := 0; r < rounds; r++ {
				es.FBS.Set(r, es.FBS.At(r)+trin[r])
			}
		}
	}
	for bi, blk := range p.store.Blocks() {
		if !member[p.space.OriginOf(blk)] {
			continue
		}
		for r := 0; r < rounds; r++ {
			if !es.Missing[r] && p.store.Routed(bi, r) {
				es.BGP.Set(r, es.BGP.At(r)+1)
			}
		}
	}
	return es
}
