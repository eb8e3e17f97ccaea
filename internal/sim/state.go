package sim

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/faults"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/power"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// BlockState is a block's ground-truth condition at one instant.
type BlockState struct {
	// Routed reports BGP coverage.
	Routed bool
	// Resp is the number of hosts answering probes right now.
	Resp int
	// RTTMS is the mean round-trip time to responding hosts.
	RTTMS uint16
	// Rerouted reports whether the BGP path crosses a Russian upstream.
	Rerouted bool
}

// The per-block memo packs one evaluated (UTC minute, BlockState) pair into a
// word: the minute above memoStateBits, then a valid bit (so the zero word
// matches no minute), Routed, Rerouted, Resp (≤ 255) and RTTMS.
const (
	memoStateBits = 27
	memoValid     = 1 << 26
	memoRouted    = 1 << 25
	memoRerouted  = 1 << 24
)

// memoTag is a memo word's part above the state: a valid entry for Unix
// minute min.
func memoTag(min uint64) uint64 { return min<<memoStateBits | memoValid }

// memoHit reports whether memo word v is a valid entry for Unix minute min.
func memoHit(v, min uint64) bool { return v&^(memoValid-1) == memoTag(min) }

// BlockStateAt evaluates ground truth for block index bi at time at.
//
// A full block scan asks this 256 times per block within the same minute, so
// the last evaluated minute of each block is memoised. The memo is exact:
// every time input of the evaluation is either a function of the UTC minute
// (hour, day, the power schedule's hour and minute) or an edge (round start,
// dynamic epoch, AS activity bound, event From/To), and a minute holding an
// edge strictly inside it is never memoised (see steady).
func (s *Scenario) BlockStateAt(bi int, at time.Time) BlockState {
	sec := at.Unix()
	min := uint64(sec / 60)
	if sec < 0 || min >= 1<<(64-memoStateBits) {
		return s.stateAt(bi, at)
	}
	slot := &s.memo[bi]
	if v := slot.Load(); memoHit(v, min) {
		return BlockState{
			Routed:   v&memoRouted != 0,
			Rerouted: v&memoRerouted != 0,
			Resp:     int(v >> 16 & 0xff),
			RTTMS:    uint16(v),
		}
	}
	st := s.stateAt(bi, at)
	if s.steady(bi, int64(min)) {
		v := memoTag(min) | uint64(st.Resp)<<16 | uint64(st.RTTMS)
		if st.Routed {
			v |= memoRouted
		}
		if st.Rerouted {
			v |= memoRerouted
		}
		slot.Store(v)
	}
	return st
}

// steady reports whether block bi's state is the same at every instant of
// Unix minute min, i.e. no edge of its evaluation falls strictly inside it.
func (s *Scenario) steady(bi int, min int64) bool {
	// Before round 0 the dynamic epoch truncates toward zero, which closes its
	// edges on the other side; nothing probes there, so it is not memoised.
	if min < s.memoFrom {
		return false
	}
	for _, m := range s.edgeMinutes[bi] {
		if m == min {
			return false
		}
	}
	if s.gridAligned {
		return true
	}
	// Round and epoch are non-decreasing in time: equal at both ends of the
	// minute means constant across it.
	lo := time.Unix(min*60, 0)
	hi := lo.Add(time.Minute - 1)
	return s.TL.Round(lo) == s.TL.Round(hi) && s.dynamicEpoch(lo) == s.dynamicEpoch(hi)
}

// dynamicEpoch is the index of the two-week dynamic-pool reallocation period
// containing at.
func (s *Scenario) dynamicEpoch(at time.Time) int {
	return int(at.Sub(s.TL.Start()) / dynamicEpochLen)
}

const dynamicEpochLen = 14 * 24 * time.Hour

// clock puts t on the scenario's integer clock: nanoseconds since round 0,
// ordered as time.Time.Before orders. Sub saturates, so an instant ≈292 years
// or more from round 0 takes the clock's first or last tick, and instantAt
// keeps what it is asked about off the last. The order is then exact for any
// instant inside the clock against any edge (a saturated edge is before, or
// after, everything inside); an instant beyond the clock is after every edge
// beyond the near end and before every edge beyond the far end — Before's
// answer still for edges in year 1 or 9999 — and an open upper bound stays open.
func (s *Scenario) clock(t time.Time) int64 { return int64(t.Sub(s.TL.Start())) }

// instant is everything the evaluation reads of a time and its round, and
// nothing of the block: GenerateStore takes one per round, not per (block, round).
type instant struct {
	clock   int64         // see Scenario.clock; below math.MaxInt64
	frac    float64       // address-churn decline: 0 at round 0, 1 at the last
	dayKey  uint64        // UTC calendar day, the key of the frontline power hash
	round   int           // the round at belongs to
	power   power.Instant // the power schedule's day, hour and minute
	epoch   int32         // dynamic-pool reallocation epoch
	daytime bool          // 07:00–22:00 local (UTC+2)
}

// instantAt reads at, an instant of the given round, in UTC whatever zone the
// caller's clock carries.
func (s *Scenario) instantAt(round int, at time.Time) instant {
	at = at.UTC()
	pow := s.Power.At(at)
	hour := (int(pow.Hour) + 2) % 24 // local time ≈ UTC+2..+3; use +2
	// A one-round campaign has no decline to interpolate.
	frac := 0.0
	if n := s.TL.NumRounds(); n > 1 {
		frac = float64(round) / float64(n-1)
	}
	return instant{
		clock:   min(s.clock(at), math.MaxInt64-1),
		frac:    frac,
		dayKey:  uint64(at.YearDay() + at.Year()*400),
		round:   round,
		power:   pow,
		epoch:   int32(s.dynamicEpoch(at)),
		daytime: hour >= 7 && hour < 22,
	}
}

// roundInstants returns the instant of every round start, a table built on
// first use: GenerateStore reads all of it, BlockStateAt the entry of an instant
// that is exactly a round start (all the Trinocular runner and SetRouted ask).
func (s *Scenario) roundInstants() []instant {
	s.roundsOnce.Do(func() {
		rounds := make([]instant, s.TL.NumRounds())
		for r := range rounds {
			rounds[r] = s.instantAt(r, s.TL.Time(r))
		}
		s.rounds = rounds
	})
	return s.rounds
}

// stateAt is the unmemoised evaluation at any instant. It takes the block's
// grid cut and events for this one instant: no table of them is built.
func (s *Scenario) stateAt(bi int, at time.Time) BlockState {
	keys := s.keysOf(bi)
	round, start := s.TL.RoundAt(at)
	var in *instant
	if start {
		in = &s.roundInstants()[round]
	} else {
		fresh := s.instantAt(round, at)
		in = &fresh
	}
	return s.stateIn(bi, &keys, in, nil, s.index.activeAt(bi, in.clock))
}

// The evaluation's hashes of a block and a round or epoch are Hash3(salt, bi,
// c) = Mix64(Hash2(salt, bi) ^ Mix64(c)): blockKeys holds the Hash2 halves,
// constant per block, so GenerateStore takes them once per block and not per
// (block, round).
type blockKeys struct {
	count, jitter     uint64 // count rounding and RTT jitter, per round
	poolAS, poolBlock uint64 // dynamic-pool share and membership, per epoch; Dynamic blocks only
}

// keysOf returns block bi's hash halves: four mixes, eight for a Dynamic block.
func (s *Scenario) keysOf(bi int) blockKeys {
	seed := s.Cfg.Seed
	k := blockKeys{
		count:  netmodel.Hash2(seed^0x5eed, uint64(bi)),
		jitter: netmodel.Hash2(seed^0x177, uint64(bi)),
	}
	if bt := &s.blocks[bi]; bt.Dynamic {
		k.poolAS = netmodel.Hash2(seed^0x90a1, uint64(bt.ASN))
		k.poolBlock = netmodel.Hash2(seed^0x2ea1, uint64(bi))
	}
	return k
}

// regionKey is what the evaluation hashes of a region alone: its RTT base and
// the Hash2 half of the frontline power hash of (region, day).
type regionKey struct {
	rttBase   int
	frontline uint64
}

func newRegionKey(seed uint64, r netmodel.Region) regionKey {
	return regionKey{
		rttBase:   32 + int(netmodel.Hash2(seed, uint64(r))%22),
		frontline: netmodel.Hash2(seed^0xf18e, uint64(r)),
	}
}

// indexRegions fills the region table: RegionNone and the country's regions.
func (s *Scenario) indexRegions() {
	s.regionKeys = make([]regionKey, netmodel.NumRegions+1)
	for r := range s.regionKeys {
		s.regionKeys[r] = newRegionKey(s.Cfg.Seed, netmodel.Region(r))
	}
}

// gridCut is how far into a grid cut region r is at instant in: −1 for none
// (the schedule has the power on, or it is a frontline day the schedule does
// not apply to), the whole hours 0..23 of a partial-day cut, 24 for a whole
// day. It reads nothing of a block, so GenerateStore takes it once per (round,
// region) and the off-grid path once per evaluation.
func (s *Scenario) gridCut(r netmodel.Region, in *instant) int8 {
	if r.Frontline() && netmodel.Mix64(s.regionKeys[r].frontline^netmodel.Mix64(in.dayKey))%100 >= 35 {
		return -1
	}
	out, since := s.Power.OutSinceAt(r, in.power)
	if !out {
		return -1
	}
	return int8(since) // a partial cut's minute adds less than an hour
}

// cutSince is OutSinceAt's outage length for a cut of the given hours at
// instant in, rebuilt with OutSinceAt's own arithmetic.
func cutSince(hours int8, in *instant) float64 {
	if hours == 24 {
		return 24
	}
	return float64(hours) + float64(in.power.Minute)/60
}

// gridCuts is gridCut of every region at every instant of rounds, one row of
// len(regionKeys) per round (RegionNone's entry −1): the table of one
// GenerateStore, which drops it on return.
func (s *Scenario) gridCuts(rounds []instant) []int8 {
	n := len(s.regionKeys)
	cuts := make([]int8, len(rounds)*n)
	for r := range rounds {
		row := cuts[r*n : (r+1)*n]
		row[netmodel.RegionNone] = -1
		for g := 1; g < n; g++ {
			row[g] = s.gridCut(netmodel.Region(g), &rounds[r])
		}
	}
	return cuts
}

// stateIn evaluates block bi, whose hash halves are keys, at an instant taken
// with instantAt. Two inputs are what the block shares with other blocks at
// the instant: cuts is the instant's row of gridCuts, or nil to take the
// block's one gridCut here, and active lists the events holding for the block
// (eventIndex.activeAt, or a spanCursor's at).
func (s *Scenario) stateIn(bi int, keys *blockKeys, in *instant, cuts []int8, active []int16) BlockState {
	bt := &s.blocks[bi]
	as := s.blockAS[bi]
	roundMix := netmodel.Mix64(uint64(in.round)) // shared by the count-rounding and jitter hashes

	st := BlockState{Routed: as == nil || in.clock >= as.activeFrom && in.clock < as.activeTo}
	month := s.TL.MonthOfRound(in.round)

	// Address-churn decline: activity interpolates from 1 to DeclineTo.
	mult := 1 + (float64(bt.DeclineTo)-1)*in.frac

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
		epochMix := netmodel.Mix64(uint64(in.epoch)) // sign-extends, as uint64(int) did
		// The fraction of the ISP's dynamic pool in use varies per epoch
		// (consolidation and renumbering): the count of active blocks
		// swings while total responsiveness is conserved — exactly the
		// block-level false positive availability sensing filters.
		pa := 0.10 + 0.80*netmodel.UnitFloat(netmodel.Mix64(keys.poolAS^epochMix))
		if netmodel.UnitFloat(netmodel.Mix64(keys.poolBlock^epochMix)) < pa {
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
		var cut int8
		if cuts != nil {
			cut = cuts[region]
		} else {
			cut = s.gridCut(region, in)
		}
		if cut >= 0 && cutSince(cut, in) > float64(bt.BackupHours) {
			if bt.GridSensitive {
				resp *= 0.05
			} else {
				resp *= 0.70
			}
		}
	}

	// Scripted events, in event order: the drops multiply one by one, as
	// float64 products do not re-associate.
	for _, ei := range active {
		ev := &s.events[ei]
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

	// Day/night cycles.
	if bt.Diurnal {
		if in.daytime {
			resp *= 1.0
		} else {
			resp *= 0.72
		}
	}
	if diurnalOnly {
		if in.daytime {
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
		if netmodel.UnitFloat(netmodel.Mix64(keys.count^roundMix)) < fracPart {
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
	base := s.regionKeys[region].rttBase // Assemble refuses a home region past the table
	if movedAbroad {
		base = 105 // transatlantic cloud
	}
	jitter := int(netmodel.Mix64(keys.jitter^roundMix)%9) - 4
	rtt := base + rttDelta + jitter
	if rtt < 1 {
		rtt = 1
	}
	st.RTTMS = uint16(rtt)
	return st
}

// GenerateStore runs the fast statistical campaign: it evaluates every
// block's state at every round and fills a dataset.Store, marking vantage
// outages as missing. RTT series are tracked for the blocks listed in
// trackRTT.
func (s *Scenario) GenerateStore(trackRTT []netmodel.BlockID) *dataset.Store {
	store := dataset.NewStore(s.TL, s.Space.Blocks())
	for _, b := range trackRTT {
		if bi := store.BlockIndex(b); bi >= 0 {
			store.TrackRTT(bi)
		}
	}
	rounds := s.roundInstants()
	for r := range rounds {
		if s.Missing[r] {
			store.SetMissing(r)
		} else {
			store.Reserve(r, r+1)
		}
	}
	// The grid cut is a function of (round, region): one table for all blocks.
	cuts, n := s.gridCuts(rounds), len(s.regionKeys)
	// The campaign shards per block across the worker pool: every stochastic
	// decision in stateIn is a pure hash of (seed, block, round), and each
	// block owns its cells of every segment, so the result is byte-identical
	// to the sequential order at any worker count. Every segment a fill
	// writes is reserved above, so the per-cell write allocates nothing,
	// takes no lock and inlines.
	par.ForEach(len(s.blocks), func(bi int) {
		tracked := store.RTTTracked(bi)
		keys := s.keysOf(bi)
		spans := s.index.cursor(bi) // rounds ascend, and so do their clocks
		for r := range rounds {
			if s.Missing[r] {
				continue
			}
			in := &rounds[r]
			st := s.stateIn(bi, &keys, in, cuts[r*n:(r+1)*n], spans.at(in.clock))
			store.SetReserved(bi, r, st.Resp, st.Routed)
			if tracked && st.Resp > 0 {
				store.SetRTT(bi, r, st.RTTMS)
			}
		}
	})
	return store
}

// Respond answers a probe of dst at `at` from the scenario's ground truth: a
// *Scenario is a packet-level simnet.Responder, so the real scanner can probe
// it.
func (s *Scenario) Respond(dst netmodel.Addr, at time.Time) simnet.Reply {
	bi := s.Space.BlockIndex(dst.Block())
	if bi < 0 {
		return simnet.Reply{Kind: simnet.NoReply}
	}
	st := s.BlockStateAt(bi, at)
	if !st.Routed {
		return simnet.Reply{Kind: simnet.NoReply}
	}
	if st.Resp <= 0 {
		return simnet.Reply{Kind: simnet.NoReply}
	}
	if int(s.liveOrder.rank(bi, dst.HostByte())) >= st.Resp {
		return simnet.Reply{Kind: simnet.NoReply}
	}
	// Per-host RTT jitter around the block mean.
	j := int(netmodel.Hash3(s.Cfg.Seed^0x99, uint64(dst), uint64(at.Unix())/600)%7) - 3
	rtt := int(st.RTTMS) + j
	if rtt < 1 {
		rtt = 1
	}
	return simnet.Reply{Kind: simnet.EchoReply, RTT: time.Duration(rtt) * time.Millisecond}
}

// Responder returns the scenario itself as a simnet.Responder.
func (s *Scenario) Responder() simnet.Responder { return s }

// Wire returns what a vantage scans the world through from at on: a simnet
// over the world from 203.0.113.1 (TEST-NET-3, outside every world's
// prefixes), and the clock it keeps. The vantage scans addrs addresses a
// round at rate packets/second (0: scanner.DefaultRate). When the world
// scripts a vantage window the simnet sits behind a faults.Transport that
// blacks the vantage out: over the whole of a Missing round, and over a
// Degraded round at coverage c from c of the way through the vantage's scan
// to the round's end, so it keeps c of whatever share of the targets it
// scans. Every vantage sees every window, worked out here once per wire.
func (s *Scenario) Wire(at time.Time, addrs, rate int) (scanner.Transport, scanner.Clock) {
	net := simnet.New(netmodel.MustParseAddr("203.0.113.1"), s, at)
	scan := time.Duration(addrs) * time.Second / time.Duration(cmp.Or(rate, scanner.DefaultRate))
	var ws []faults.Window
	for r, missing := range s.Missing {
		from := s.TL.Time(r)
		if cov, ok := s.Degraded[r]; ok {
			from = from.Add(time.Duration(cov * float64(scan)))
		} else if !missing {
			continue
		}
		ws = append(ws, faults.Window{From: from, To: s.TL.Time(r).Add(s.TL.Interval()), Kind: faults.Blackout})
	}
	if len(ws) == 0 {
		return net, net
	}
	return faults.NewTransport(net, net, faults.Profile{Windows: ws}), net
}

// repStride spreads a Trinocular-style ever-active selection across the
// block's historical liveness ranks: census-derived E(b) sets include
// addresses that were active once but have churned away (DHCP pools), so a
// representative at rank 3i only answers when the block's current live
// population exceeds 3i. This staleness is what drags real Trinocular
// availabilities down (Table 4's 24% indeterminate share) and makes
// single-probe inference of partially-alive blocks unstable (Fig 27).
const repStride = 3

// Representatives returns a block's k representative addresses as a
// historical census would select them: ordered by long-term liveness, but
// spread across ranks (see repStride).
func (s *Scenario) Representatives(blk netmodel.BlockID, k int) []netmodel.Addr {
	bi := s.Space.BlockIndex(blk)
	if bi < 0 || k <= 0 {
		return nil
	}
	if k > 256/repStride {
		k = 256 / repStride
	}
	out := make([]netmodel.Addr, k)
	found := 0
	for h := 0; h < 256 && found < k; h++ {
		r := int(s.liveOrder.rank(bi, uint8(h)))
		if r%repStride == 0 && r/repStride < k {
			out[r/repStride] = blk.Addr(uint8(h))
			found++
		}
	}
	return out
}

// Single unvalidated probes experience per-address transient loss (rate
// limiting, intermittent hosts, congestion — "pingin' in the rain"): each
// address has an individual short-term availability between MinProbeAvail
// and MaxProbeAvail. The full-block scanner's per-round counts fold the
// expected loss into RespRate; for a 256-probe census the residual variance
// is negligible (< 2 addresses per block-round), while for single-probe
// inference it is the dominant noise source the paper's Fig 27 measures.
const (
	MinProbeAvail = 0.55
	MaxProbeAvail = 0.98
)

// ProbeFunc adapts the scenario to a single-address ground-truth probe (the
// Trinocular baseline's view of the world) over the scenario's rounds: the
// answer for a round is evaluated at s.TL.Time(round). Outcomes are
// deterministic per (address, round-quantized time): retrying the same
// address in the same ten-minute window does not help, as with real rate
// limiting.
//
// A caller whose store GenerateStore filled has that ground truth recorded
// already and asks RecordedProbe instead; a Monitor's store holds measured
// counts, which are not ground truth, so it is probed here.
func (s *Scenario) ProbeFunc() func(addr netmodel.Addr, round int) bool {
	return func(addr netmodel.Addr, round int) bool {
		bi := s.Space.BlockIndex(addr.Block())
		if bi < 0 {
			return false
		}
		at := s.TL.Time(round)
		st := s.BlockStateAt(bi, at)
		return s.probeAnswers(bi, addr, st.Routed, st.Resp, at.Unix()/600)
	}
}

// RecordedProbe is ProbeFunc over the scenario's own rounds for a store that
// GenerateStore filled: a measured round's answer reads the block's routed
// bit and count from st, which hold exactly what the evaluation gave (a count
// is at most 255 and the block's Density, so SetRound's clamp never moved
// it); a missing round holds nothing and is evaluated. It panics if st's
// blocks or timeline are not the scenario's. That check is of the store's
// shape only: a Monitor's store of this scenario has the same blocks and
// rounds but measured counts, and passes it, so such a store must be probed
// with ProbeFunc.
func (s *Scenario) RecordedProbe(st *dataset.Store) func(addr netmodel.Addr, round int) bool {
	tl := st.Timeline()
	if !slices.Equal(st.Blocks(), s.Space.Blocks()) || !tl.Start().Equal(s.TL.Start()) ||
		tl.Interval() != s.TL.Interval() || tl.NumRounds() != s.TL.NumRounds() {
		panic("sim: RecordedProbe: the store is not of this scenario's blocks and rounds")
	}
	// Each round's ten-minute loss window, as ProbeFunc takes it per call.
	windows := make([]int64, s.TL.NumRounds())
	for r := range windows {
		windows[r] = s.TL.Time(r).Unix() / 600
	}
	return func(addr netmodel.Addr, round int) bool {
		bi := s.Space.BlockIndex(addr.Block())
		if bi < 0 {
			return false
		}
		if st.Missing(round) {
			bs := s.BlockStateAt(bi, s.TL.Time(round))
			return s.probeAnswers(bi, addr, bs.Routed, bs.Resp, windows[round])
		}
		return s.probeAnswers(bi, addr, st.Routed(bi, round), st.Resp(bi, round), windows[round])
	}
}

// probeAnswers is both probes' answer for addr, of block bi, in ten-minute
// window (Unix seconds / 600) of a round in which the block's routed state and
// count are routed and resp.
func (s *Scenario) probeAnswers(bi int, addr netmodel.Addr, routed bool, resp int, window int64) bool {
	if !routed || resp <= 0 {
		return false
	}
	if int(s.liveOrder.rank(bi, addr.HostByte())) >= resp {
		return false
	}
	avail := MinProbeAvail + (MaxProbeAvail-MinProbeAvail)*netmodel.UnitFloat(netmodel.Hash2(s.Cfg.Seed^0xa7a, uint64(addr)))
	h := netmodel.Hash3(s.Cfg.Seed^0x10ff, uint64(addr), uint64(window))
	return netmodel.UnitFloat(h) < avail
}

// indexMemo sizes the BlockStateAt memo and records what steady needs: which
// minutes of each block hold an edge strictly inside them, and whether the
// round grid can put one there at all.
func (s *Scenario) indexMemo() {
	s.memo = make([]atomic.Uint64, len(s.blocks))
	start := s.TL.Start()
	s.memoFrom = start.Unix() / 60
	if !onMinute(start) {
		s.memoFrom++
	}
	s.gridAligned = onMinute(start) && s.TL.Interval()%time.Minute == 0
	s.edgeMinutes = make([][]int64, len(s.blocks))
	for bi := range s.blocks {
		edge := func(e time.Time) {
			if !onMinute(e) {
				s.edgeMinutes[bi] = append(s.edgeMinutes[bi], e.Unix()/60)
			}
		}
		if as := s.blockAS[bi]; as != nil {
			edge(as.ActiveFrom)
			edge(as.ActiveTo)
		}
		for _, ei := range s.index.blockEvents(bi) {
			edge(s.events[ei].From)
			edge(s.events[ei].To)
		}
	}
}

// onMinute reports whether t is the first instant of a UTC minute.
func onMinute(t time.Time) bool { return t.Nanosecond() == 0 && t.Unix()%60 == 0 }
