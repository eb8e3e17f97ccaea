package sim

import (
	"sort"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/ripe"
)

// RIPE delegation ground truth (§3.2, Appendix B): the measurement input is
// a single pre-war snapshot; over the war, ~12% of Ukrainian ranges are
// re-registered under other country codes (a third of them to Russia) and
// ~7% new ranges appear.

// ripeSnapshotDate is the paper's input snapshot date.
var ripeSnapshotDate = time.Date(2021, 12, 14, 0, 0, 0, 0, time.UTC)

const (
	recodeFraction = 0.12
	addFraction    = 0.07
)

// RIPEBase returns the 2021-12-14 delegation file used as the scanner's
// target input: every home-country allocation chunk plus the leased foreign-delegated
// ranges (which is why the leased Kherson providers are missing from the
// target set, §4.3).
func (s *Scenario) RIPEBase() *ripe.File {
	f := &ripe.File{}
	for _, as := range s.Space.ASes() {
		for _, p := range as.Prefixes {
			f.Records = append(f.Records, ripe.Record{
				Registry: "ripencc", CC: s.Country, Type: "ipv4",
				Start: p.Base, Count: p.NumAddrs(),
				Date:   allocDate(s.Cfg.Seed, p.Base),
				Status: ripe.StatusAllocated,
			})
		}
	}
	for _, as := range s.leased {
		for _, p := range as.Prefixes {
			f.Records = append(f.Records, ripe.Record{
				Registry: "ripencc", CC: "CZ", Type: "ipv4",
				Start: p.Base, Count: p.NumAddrs(),
				Date:   allocDate(s.Cfg.Seed, p.Base),
				Status: ripe.StatusAssigned,
			})
		}
	}
	sort.Slice(f.Records, func(i, j int) bool { return f.Records[i].Start < f.Records[j].Start })
	return f
}

// allocDate spreads allocation dates over 1996..2021 with the bulk in the
// 2004-2012 growth years (Fig 18's shape).
func allocDate(seed uint64, base netmodel.Addr) time.Time {
	h := netmodel.Hash2(seed^0x41fe, uint64(base))
	u := netmodel.UnitFloat(h)
	var year int
	switch {
	case u < 0.10:
		year = 1996 + int(h>>8%8) // 1996..2003
	case u < 0.75:
		year = 2004 + int(h>>8%9) // 2004..2012
	default:
		year = 2013 + int(h>>8%9) // 2013..2021
	}
	return time.Date(year, time.Month(1+h>>16%12), 1+int(h>>24%28), 0, 0, 0, 0, time.UTC)
}

// recodeDest picks the destination country for a re-registered range: ~31%
// RU, 13.5% US, 11% PL, 9% LV, the rest other European codes (App. B).
func recodeDest(h uint64) string {
	switch v := h % 200; {
	case v < 62:
		return "RU"
	case v < 89:
		return "US"
	case v < 111:
		return "PL"
	case v < 129:
		return "LV"
	case v < 160:
		return "NL"
	case v < 185:
		return "DE"
	default:
		return "RO"
	}
}

// RIPESnapshot returns the delegation file as of dense campaign month m
// (m < 0 returns the base snapshot): re-registrations and additions applied
// up to that month.
func (s *Scenario) RIPESnapshot(month int) *ripe.File {
	base := s.RIPEBase()
	if month < 0 {
		return base
	}
	months := s.TL.NumMonths()
	out := &ripe.File{}
	for i, rec := range base.Records {
		if rec.CC == s.Country {
			h := netmodel.Hash3(s.Cfg.Seed^0x5ec0, uint64(rec.Start), uint64(i))
			if netmodel.UnitFloat(h) < recodeFraction {
				at := int(h >> 16 % uint64(months))
				if month >= at {
					rec.CC = recodeDest(h >> 32)
				}
			}
		}
		out.Records = append(out.Records, rec)
	}
	// Additions: new home-country ranges appearing over the campaign, carved from a
	// reserved pool.
	added := int(float64(len(base.Records)) * addFraction)
	for i := 0; i < added; i++ {
		h := netmodel.Hash2(s.Cfg.Seed^0xadd, uint64(i))
		at := int(h % uint64(months))
		if month < at {
			continue
		}
		start := netmodel.MustParseAddr("45.128.0.0") + netmodel.Addr(i*1024)
		out.Records = append(out.Records, ripe.Record{
			Registry: "ripencc", CC: s.Country, Type: "ipv4",
			Start: start, Count: 1024,
			Date:   s.TL.MonthStart(at),
			Status: ripe.StatusAllocated,
		})
	}
	return out
}

// RIPEYearlySeries returns total addresses delegated to the scenario's
// country at the start of
// each year in [fromYear, toYear], reconstructing Fig 18's curve: history
// before the campaign from allocation dates, afterwards from snapshots.
func (s *Scenario) RIPEYearlySeries(fromYear, toYear int) ([]int, []uint64) {
	base := s.RIPEBase()
	var years []int
	var addrs []uint64
	for y := fromYear; y <= toYear; y++ {
		cut := time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC)
		var total uint64
		if cut.Before(ripeSnapshotDate) {
			for _, rec := range base.Records {
				if rec.CC == s.Country && rec.Date.Before(cut) {
					total += rec.Count
				}
			}
		} else {
			snap := s.RIPESnapshot(s.TL.MonthIndex(cut))
			total = snap.CountryAddrCount(s.Country)
		}
		years = append(years, y)
		addrs = append(addrs, total)
	}
	return years, addrs
}
