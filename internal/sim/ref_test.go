package sim

import (
	"time"

	"countrymon/internal/netmodel"
)

// The oracle: ground truth as it was evaluated before event scripts were
// compiled into per-class spans — a linear scan of the block's whole event
// list with two time.Time.Before calls per event, everything that depends on
// the instant re-derived per call, and the quadratic event × block index.
// The bodies are kept verbatim; only the receiver moved. The oracle divides
// by NumRounds−1 for the decline fraction, so it is asked only about worlds
// of two rounds or more (a one-round world is TestOneRoundWorldResponds').

// refWorld is a scenario with the oracle's own event index.
type refWorld struct {
	*Scenario
	blockEvents [][]int16
}

func newRefWorld(s *Scenario) *refWorld {
	return &refWorld{Scenario: s, blockEvents: refBlockEvents(s)}
}

// refBlockEvents lists, per block, the indices of the events that name it by
// ASN, home region or block id, asking every block about every event.
func refBlockEvents(s *Scenario) [][]int16 {
	blockEvents := make([][]int16, len(s.blocks))
	asnSet := make(map[netmodel.ASN]bool)
	regionSet := make(map[netmodel.Region]bool)
	blockSet := make(map[netmodel.BlockID]bool)
	for ei := range s.events {
		ev := &s.events[ei]
		clear(asnSet)
		clear(regionSet)
		clear(blockSet)
		for _, a := range ev.ASNs {
			asnSet[a] = true
		}
		for _, r := range ev.Regions {
			regionSet[r] = true
		}
		for _, b := range ev.Blocks {
			blockSet[b] = true
		}
		for bi := range s.blocks {
			bt := &s.blocks[bi]
			if asnSet[bt.ASN] || regionSet[bt.HomeRegion] || blockSet[bt.Block] {
				blockEvents[bi] = append(blockEvents[bi], int16(ei))
			}
		}
	}
	return blockEvents
}

// refStateAt is the oracle for block bi in the given round at instant at.
func (s *refWorld) refStateAt(bi int, round int, at time.Time) BlockState {
	// Hour, day and the power schedule are read in UTC whatever zone the
	// caller's clock carries.
	at = at.UTC()
	bt := &s.blocks[bi]
	as := s.blockAS[bi]

	st := BlockState{Routed: as == nil || as.Active(at)}
	month := s.TL.MonthOfRound(round)

	// Address-churn decline: activity interpolates from 1 to DeclineTo.
	frac := float64(round) / float64(s.TL.NumRounds()-1)
	mult := 1 + (float64(bt.DeclineTo)-1)*frac

	movedAbroad := bt.Moved(month) && !bt.MoveRegion.Valid()
	region := bt.HomeRegion
	if bt.Moved(month) && bt.MoveRegion.Valid() {
		region = bt.MoveRegion
	}
	if movedAbroad && bt.MoveASN != 0 {
		// Announced by the foreign acquirer (e.g. Amazon) from the move on.
		st.Routed = true
	}

	resp := float64(bt.Density) * mult * float64(bt.RespRate)
	silent := false
	rttDelta := 0
	diurnalOnly := false

	// Dynamic pools reallocate: every couple of weeks roughly half of a
	// national ISP's dynamic blocks go quiet while the displaced users
	// appear in the other half — total responsiveness is conserved, but
	// the set of active blocks shifts. This is the false-positive source
	// ISP availability sensing exists to filter (§3.1, Baltra et al.).
	if bt.Dynamic {
		epoch := s.dynamicEpoch(at)
		// The fraction of the ISP's dynamic pool in use varies per epoch
		// (consolidation and renumbering): the count of active blocks
		// swings while total responsiveness is conserved — exactly the
		// block-level false positive availability sensing filters.
		pa := 0.10 + 0.80*netmodel.UnitFloat(netmodel.Hash3(s.Cfg.Seed^0x90a1, uint64(bt.ASN), uint64(epoch)))
		if netmodel.UnitFloat(netmodel.Hash3(s.Cfg.Seed^0x2ea1, uint64(bi), uint64(epoch))) < pa {
			m := 0.7 / pa
			if m > 2.3 {
				m = 2.3
			}
			resp *= m
		} else {
			resp *= 0.02
		}
	}

	// Electricity: regional grid failures suppress responsiveness once the
	// outage outlasts the block's backup capacity. Blocks moved abroad are
	// off the Ukrainian grid. In frontline oblasts the grid is damaged
	// kinetically rather than shed on the published rolling schedule, so
	// the scheduled windows only partially apply there — which is why
	// frontline Internet outages correlate weakly with the reported power
	// outages (§5.1: r = 0.298 vs 0.725).
	if !movedAbroad && region.Valid() {
		applies := true
		if region.Frontline() {
			day := at.YearDay() + at.Year()*400
			applies = netmodel.Hash3(s.Cfg.Seed^0xf18e, uint64(region), uint64(day))%100 < 35
		}
		if out, since := s.Power.OutSince(region, at); applies && out && since > float64(bt.BackupHours) {
			if bt.GridSensitive {
				resp *= 0.05
			} else {
				resp *= 0.70
			}
		}
	}

	// Scripted events.
	for _, ei := range s.blockEvents[bi] {
		ev := &s.events[ei]
		if at.Before(ev.From) || !at.Before(ev.To) {
			continue
		}
		switch ev.Kind {
		case EffectBGPDown:
			st.Routed = false
		case EffectSilent:
			silent = true
		case EffectIPSDrop:
			resp *= 1 - ev.Magnitude
		case EffectReroute:
			rttDelta += ev.RTTDeltaMS
			st.Rerouted = true
		case EffectDiurnalOnly:
			diurnalOnly = true
		}
	}

	// Day/night cycles (local time ≈ UTC+2..+3; use +2).
	hour := (at.Hour() + 2) % 24
	day := hour >= 7 && hour < 22
	if bt.Diurnal {
		if day {
			resp *= 1.0
		} else {
			resp *= 0.72
		}
	}
	if diurnalOnly {
		if day {
			resp *= 0.8
		} else {
			resp = 0
		}
	}

	if silent || !st.Routed {
		resp = 0
	}

	// Deterministic rounding: the fractional part becomes an extra host for
	// a hash-chosen subset of rounds, so means are preserved.
	if resp > 0 {
		w := int(resp)
		fracPart := resp - float64(w)
		if netmodel.UnitFloat(netmodel.Hash3(s.Cfg.Seed^0x5eed, uint64(bi), uint64(round))) < fracPart {
			w++
		}
		if w > int(bt.Density) {
			w = int(bt.Density)
		}
		if w > 255 {
			w = 255
		}
		st.Resp = w
	}

	// Round-trip time: base per region plus rerouting detours and jitter.
	base := 32 + int(netmodel.Hash2(uint64(s.Cfg.Seed), uint64(region))%22)
	if movedAbroad {
		base = 105 // transatlantic cloud
	}
	jitter := int(netmodel.Hash3(s.Cfg.Seed^0x177, uint64(bi), uint64(round))%9) - 4
	rtt := base + rttDelta + jitter
	if rtt < 1 {
		rtt = 1
	}
	st.RTTMS = uint16(rtt)
	return st
}
