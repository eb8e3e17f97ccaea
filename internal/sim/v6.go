package sim

import (
	"encoding/binary"
	"net/netip"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner6"
	"countrymon/internal/simnet"
)

// IPv6 ground truth (§6 future work, Fig 20): each region gets a /40 under
// a Ukrainian /24 allocation, with /48 sites whose responsive population
// grows with the region's scripted IPv6 adoption. The hitlist is what a
// DNS/NTP/error-harvesting pipeline would have collected.

// v6Base is the synthetic Ukrainian IPv6 super-block.
var v6Base = netip.MustParsePrefix("2a0d:8480::/29")

// V6RegionPrefix returns the /40 carrying a region's sites: the region
// index is encoded in bytes 3-4 of the address.
func V6RegionPrefix(r netmodel.Region) netip.Prefix {
	b := v6Base.Addr().As16()
	b[3] = uint8(r)
	p, _ := netip.AddrFrom16(b).Prefix(40)
	return p
}

// v6RegionOf inverts V6RegionPrefix.
func v6RegionOf(a netip.Addr) netmodel.Region {
	b := a.As16()
	r := netmodel.Region(b[3])
	if !r.Valid() {
		return netmodel.RegionNone
	}
	return r
}

// v6SitesPerRegion scales the per-region site count with the block weights.
func (s *Scenario) v6SitesPerRegion(r netmodel.Region) int {
	n := int(regionParams[r].Weight * 400 * s.Cfg.Scale * 10)
	if n < 2 {
		n = 2
	}
	return n
}

// v6AddrsPerSite is the hitlist density per /48 site.
const v6AddrsPerSite = 8

// V6Hitlist builds the probe target list across all regions.
func (s *Scenario) V6Hitlist() (*scanner6.Hitlist, error) {
	var addrs []netip.Addr
	for _, r := range netmodel.Regions() {
		base := V6RegionPrefix(r).Addr().As16()
		for site := 0; site < s.v6SitesPerRegion(r); site++ {
			b := base
			binary.BigEndian.PutUint16(b[4:6], uint16(site))
			for hst := 0; hst < v6AddrsPerSite; hst++ {
				h := netmodel.Hash3(s.Cfg.Seed^0x6f0, uint64(r)<<32|uint64(site), uint64(hst))
				binary.BigEndian.PutUint64(b[8:16], h|1)
				addrs = append(addrs, netip.AddrFrom16(b))
			}
		}
	}
	return scanner6.NewHitlist(addrs)
}

// v6Adoption returns the fraction of a region's hitlist that answers at the
// given time: it interpolates between a starting share and the share implied
// by the Fig-20 growth percentage.
func (s *Scenario) v6Adoption(r netmodel.Region, at time.Time) float64 {
	start := 0.15 + 0.25*netmodel.UnitFloat(netmodel.Hash2(s.Cfg.Seed^0x60a, uint64(r)))
	growth := s.IPv6ChurnByRegion()[r] / 100
	frac := at.Sub(s.TL.Start()).Hours() / s.TL.End().Sub(s.TL.Start()).Hours()
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	share := start * (1 + growth*frac)
	if share > 0.95 {
		share = 0.95
	}
	if share < 0.01 {
		share = 0.01
	}
	return share
}

// V6Responder exposes the IPv6 ground truth as a simulated wire responder.
// A small share of probes is answered by an intermediate router with an
// ICMPv6 error instead — the addresses §6 proposes to harvest.
func (s *Scenario) V6Responder() simnet.Responder6 {
	return func(dst netip.Addr, at time.Time) simnet.Reply6 {
		r := v6RegionOf(dst)
		if !r.Valid() {
			return simnet.Reply6{Kind: simnet.NoReply}
		}
		b := dst.As16()
		hostHash := netmodel.Hash3(s.Cfg.Seed^0x6e5, uint64(binary.BigEndian.Uint64(b[0:8])), uint64(binary.BigEndian.Uint64(b[8:16])))
		rtt := time.Duration(30+netmodel.Hash2(uint64(s.Cfg.Seed), uint64(r))%22) * time.Millisecond
		if netmodel.UnitFloat(hostHash) < s.v6Adoption(r, at) {
			return simnet.Reply6{Kind: simnet.EchoReply, RTT: rtt}
		}
		// ~7% of silent targets sit behind a router that answers with an
		// error, revealing itself.
		if hostHash>>32%100 < 7 {
			rb := b
			rb[15] = 0x01 // the site router
			rb[14] = 0xff
			return simnet.Reply6{Kind: simnet.HostUnreachable, RTT: rtt, Router: netip.AddrFrom16(rb)}
		}
		return simnet.Reply6{Kind: simnet.NoReply}
	}
}
