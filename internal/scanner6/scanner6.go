// Package scanner6 is the IPv6 counterpart of the full-block scanner — the
// paper's future-work direction (§6). The IPv6 space cannot be enumerated,
// so probing works from a *hitlist* of known-interesting addresses (from
// DNS, NTP pools, ICMPv6 error harvesting); the prober validates replies
// statelessly like the IPv4 scanner and aggregates responsiveness per /48
// site prefix, the v6 analogue of the /24 block.
package scanner6

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"countrymon/internal/icmp6"
	"countrymon/internal/scanner"
)

// SiteBits is the aggregation prefix length (a /48 is the common site
// assignment, playing the /24's role).
const SiteBits = 48

// Site returns the /48 prefix containing a.
func Site(a netip.Addr) netip.Prefix {
	p, _ := a.Prefix(SiteBits)
	return p
}

// Hitlist is a deduplicated, ordered set of probe targets.
type Hitlist struct {
	addrs []netip.Addr
}

// NewHitlist builds a hitlist (sorted + deduplicated, IPv6 only).
func NewHitlist(addrs []netip.Addr) (*Hitlist, error) {
	var v6 []netip.Addr
	for _, a := range addrs {
		if !a.Is6() || a.Is4In6() {
			return nil, fmt.Errorf("scanner6: %v is not an IPv6 address", a)
		}
		v6 = append(v6, a)
	}
	if len(v6) == 0 {
		return nil, errors.New("scanner6: empty hitlist")
	}
	sort.Slice(v6, func(i, j int) bool { return v6[i].Less(v6[j]) })
	out := v6[:1]
	for _, a := range v6[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return &Hitlist{addrs: out}, nil
}

// Len returns the number of targets.
func (h *Hitlist) Len() int { return len(h.addrs) }

// Sites returns the distinct /48 sites covered.
func (h *Hitlist) Sites() []netip.Prefix {
	var out []netip.Prefix
	for _, a := range h.addrs {
		s := Site(a)
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// Transport carries raw IPv6 datagrams.
type Transport interface {
	// WritePacket transmits one IPv6 datagram; implementations must not
	// retain b.
	WritePacket(b []byte) error
	// ReadPacket returns the next inbound datagram, waiting at most wait.
	ReadPacket(wait time.Duration) (pkt []byte, at time.Time, err error)
	// LocalAddr is the vantage point's IPv6 source address.
	LocalAddr() netip.Addr
}

// Config controls one probe round.
type Config struct {
	Rate     int // packets/second; 0 = scanner.DefaultRate, negative = unlimited
	Seed     uint64
	Epoch    uint32
	Cooldown time.Duration
	Clock    scanner.Clock
}

// probeHopLimit is the outgoing hop limit of every probe.
const probeHopLimit = 64

func (c Config) withDefaults() Config {
	if c.Rate == 0 {
		c.Rate = scanner.DefaultRate
	}
	if c.Cooldown == 0 {
		c.Cooldown = 8 * time.Second
	}
	if c.Clock == nil {
		c.Clock = scanner.RealClock{}
	}
	return c
}

// SiteResult aggregates one /48 site's responsiveness.
type SiteResult struct {
	Site      netip.Prefix
	Targets   int
	Responses int
	RTTSum    time.Duration
}

// RoundData is one completed hitlist round.
type RoundData struct {
	Sites []SiteResult
	Stats scanner.Stats
	// ErrorSources are routers revealed by ICMPv6 error messages — the
	// NAT-free visibility gain §6 cites.
	ErrorSources []icmp6.ErrorSource
}

// Prober runs hitlist rounds.
type Prober struct {
	cfg Config
	tr  Transport
}

// New builds a prober.
func New(tr Transport, cfg Config) *Prober {
	return &Prober{cfg: cfg.withDefaults(), tr: tr}
}

// idSeq derives the stateless validation identity for a target.
func idSeq(seed uint64, epoch uint32, dst netip.Addr) (uint16, uint16) {
	b := dst.As16()
	h := seed ^ uint64(epoch)<<32
	for i := 0; i < 16; i += 8 {
		h = (h ^ binary.BigEndian.Uint64(b[i:])) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return uint16(h >> 16), uint16(h)
}

// maxRecvErrors is how many transient receive errors one round tolerates
// before its receive path counts as dead (scanner.Config.MaxRecvErrors'
// default).
const maxRecvErrors = 32

// Run probes every hitlist address once. A probe whose send fails transiently
// is skipped and counted in Stats.SendErrors, and a transient read error is
// counted in Stats.RecvErrors and read past. Any other send error and a dead
// receive path — a non-transient read error, or more than maxRecvErrors
// transient ones — fail the round: it is never reported as zero responsive
// sites.
func (p *Prober) Run(hl *Hitlist) (*RoundData, error) {
	cfg := p.cfg
	src := p.tr.LocalAddr()
	start := cfg.Clock.Now()
	rl := scanner.NewRateLimiter(cfg.Clock, cfg.Rate, 64)

	sites := hl.Sites()
	siteIdx := make(map[netip.Prefix]int, len(sites))
	rd := &RoundData{Sites: make([]SiteResult, len(sites))}
	for i, s := range sites {
		rd.Sites[i].Site = s
		siteIdx[s] = i
	}
	for _, a := range hl.addrs {
		rd.Sites[siteIdx[Site(a)]].Targets++
	}

	var payload [8]byte
	for _, dst := range hl.addrs {
		rl.Wait()
		now := cfg.Clock.Now()
		id, seq := idSeq(cfg.Seed, cfg.Epoch, dst)
		binary.BigEndian.PutUint32(payload[0:], cfg.Epoch)
		ms := now.Sub(start).Milliseconds()
		if ms < 0 {
			ms = 0
		}
		binary.BigEndian.PutUint32(payload[4:], uint32(ms))
		msg := icmp6.EchoRequest(src, dst, id, seq, payload[:])
		dg, err := icmp6.MarshalIPv6(icmp6.IPv6Header{
			NextHeader: icmp6.NextHeaderICMPv6, HopLimit: probeHopLimit,
			Src: src, Dst: dst,
		}, msg)
		if err != nil {
			return nil, err
		}
		switch err := p.tr.WritePacket(dg); {
		case err == nil:
			rd.Stats.Sent++
		case scanner.IsTransient(err):
			rd.Stats.SendErrors++
		default:
			return nil, fmt.Errorf("scanner6: send to %v: %w", dst, err)
		}
		if err := p.drain(rd, start, 0, siteIdx); err != nil {
			return nil, err
		}
	}
	deadline := cfg.Clock.Now().Add(cfg.Cooldown)
	for {
		left := deadline.Sub(cfg.Clock.Now())
		if left <= 0 {
			break
		}
		if err := p.drain(rd, start, left, siteIdx); err != nil {
			return nil, err
		}
	}
	rd.Stats.Elapsed = cfg.Clock.Now().Sub(start)
	return rd, nil
}

// drain reads and processes inbound packets until a read times out, waiting
// up to wait for the first and polling for the rest. It returns an error once
// the receive path is dead.
func (p *Prober) drain(rd *RoundData, start time.Time, wait time.Duration, siteIdx map[netip.Prefix]int) error {
	for {
		pkt, at, err := p.tr.ReadPacket(wait)
		switch {
		case err == nil:
			p.processReply(rd, start, pkt, at, siteIdx)
		case errors.Is(err, scanner.ErrTimeout):
			return nil
		default:
			rd.Stats.RecvErrors++
			if !scanner.IsTransient(err) || rd.Stats.RecvErrors > maxRecvErrors {
				return fmt.Errorf("scanner6: receive path dead after %d read errors: %w", rd.Stats.RecvErrors, err)
			}
		}
		wait = 0
	}
}

// processReply parses, validates and aggregates one inbound packet.
func (p *Prober) processReply(rd *RoundData, start time.Time, pkt []byte, at time.Time, siteIdx map[netip.Prefix]int) {
	h, body, err := icmp6.ParseIPv6(pkt)
	if err != nil || h.NextHeader != icmp6.NextHeaderICMPv6 {
		rd.Stats.Invalid++
		return
	}
	m, err := icmp6.Parse(h.Src, h.Dst, body)
	if err != nil {
		rd.Stats.Invalid++
		return
	}
	if m.IsError() {
		// Harvest the emitting router (§6's visibility gain).
		if es, err := icmp6.RevealSource(pkt); err == nil {
			rd.ErrorSources = append(rd.ErrorSources, es)
		}
		rd.Stats.NonEcho++
		return
	}
	if m.Type != icmp6.TypeEchoReply {
		rd.Stats.NonEcho++
		return
	}
	id, seq := idSeq(p.cfg.Seed, p.cfg.Epoch, h.Src)
	if m.ID != id || m.Seq != seq || len(m.Payload) < 8 ||
		binary.BigEndian.Uint32(m.Payload[0:]) != p.cfg.Epoch {
		rd.Stats.Invalid++
		return
	}
	rd.Stats.Received++
	si, ok := siteIdx[Site(h.Src)]
	if !ok {
		rd.Stats.Invalid++
		return
	}
	sentMS := binary.BigEndian.Uint32(m.Payload[4:])
	rtt := at.Sub(start) - time.Duration(sentMS)*time.Millisecond
	if rtt < 0 {
		rtt = 0
	}
	rd.Sites[si].Responses++
	rd.Sites[si].RTTSum += rtt
	rd.Stats.Valid++
}
