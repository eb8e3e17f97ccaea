// Package fleet supervises a multi-vantage scanner fleet: N vantages scan a
// round's address-block shards concurrently, a per-vantage circuit breaker
// (closed → open → half-open, with exponential-backoff quarantine)
// translates missed heartbeats into quarantine, failed shards are
// deterministically reassigned ("stolen") to healthy vantages within the
// same round, and suspect block transitions are corroborated by re-probing
// from independent vantages before k-of-n fusion (internal/signals) lets a
// block go down.
//
// The point is the distinction the paper's operators had to make by hand:
// "our vantage is sick" (a self-outage, reported on the obs bus and never
// written into the measurement) versus "the target is dark" (a corroborated
// observation). A single stalled or blacked-out vantage therefore cannot
// fabricate a country-wide outage.
//
// One physical fleet can carry several campaigns (one per monitored
// country): vantage identity — breakers, health EWMAs, quarantine — is
// shared, while targets, rate budget, belief and the accounting of
// steals/degraded rounds/self-outages are per campaign (Join). A vantage
// blackout observed during country A's round quarantines the vantage for
// every campaign, and each campaign's report attributes only the steals and
// degraded rounds of its own rounds, so two monitors sharing the supervisor
// never double-count.
//
// Determinism: every scan runs over a fresh per-(vantage, round) transport
// from the vantage's factory, results are slotted by shard index, and all
// state mutation — breaker transitions, steals, fusion, belief updates —
// happens on the supervisor goroutine in fixed (shard, vantage) order
// between scan waves. Fleet round output is byte-identical regardless of
// COUNTRYMON_WORKERS.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/par"
	"countrymon/internal/scanner"
	"countrymon/internal/signals"
)

// TransportFunc builds a fresh transport (and clock) for one scan in round
// `round`, scheduled at `at`. It is called once per assigned shard and once
// per corroboration re-probe, possibly from concurrent goroutines, so it
// must be safe for concurrent use and must return independent transports.
// Transports implementing io.Closer are closed when their scan finishes.
type TransportFunc func(round int, at time.Time) (scanner.Transport, scanner.Clock, error)

// Spec describes one vantage.
type Spec struct {
	// Name identifies the vantage in events, metrics and reports.
	Name string
	// Transport is the vantage's default transport factory. Campaigns may
	// override it per vantage (CampaignConfig.Transports) when the same
	// physical vantage reaches different measurement worlds per country.
	Transport TransportFunc
}

// Config configures a Supervisor.
type Config struct {
	// Scan is the base per-scan configuration (rate, seed, batching,
	// metrics, events); Shard/Shards/Epoch/Clock are overridden per scan,
	// and Rate is scaled by each campaign's RateShare so the per-vantage
	// budget holds across campaigns.
	Scan scanner.Config
	// Quorum is k of the k-of-n corroboration: the coverage-weighted dark
	// votes needed before a suspect block transitions to down (default
	// min(2, vantages); the effective quorum never exceeds the vantages
	// that produced a verdict).
	Quorum int

	// Registry and Bus attach the fleet's instruments and event stream.
	Registry *obs.Registry
	Bus      *obs.Bus
}

// RoundReport describes how one fleet round went.
type RoundReport struct {
	Round     int
	Healthy   int // vantages that entered the round closed
	Eligible  int // closed + half-open vantages
	Steals    int // shards reassigned mid-round
	Uncovered int // shards no vantage could scan
	// SelfOutage: no shard produced usable data — the fleet, not the
	// target, was dark. The round must be recorded missing.
	SelfOutage bool
	// Degraded: the round ran below quorum, left shards uncovered, or was
	// a self-outage.
	Degraded bool
	// Fusion tallies over this round's suspect blocks.
	Suspects, FusedAlive, FusedDown, FusedHeld int
}

// CampaignReport aggregates one campaign's rounds scanned so far.
type CampaignReport struct {
	// Quarantined lists vantages whose breaker this campaign observed open
	// (tripped during one of its rounds, or already open when one of its
	// rounds began), each once, in observation order.
	Quarantined                                []string
	DegradedRounds                             int
	SelfOutages                                int
	Steals                                     int
	Suspects, FusedAlive, FusedDown, FusedHeld int
}

// Degraded reports whether the campaign completed degraded: a vantage was
// quarantined or at least one round ran below quorum / with coverage holes.
func (r CampaignReport) Degraded() bool {
	return len(r.Quarantined) > 0 || r.DegradedRounds > 0 || r.SelfOutages > 0
}

// vantage is one fleet member's supervisor-side state, shared by every
// campaign on the fleet.
type vantage struct {
	spec     Spec
	br       breaker
	health   float64 // heartbeat EWMA in [0, 1]
	healthG  *obs.Gauge
	everOpen bool
}

// Supervisor runs the fleet. It is not safe for concurrent use; drive it
// (and every campaign joined to it) from one goroutine — the Monitor does,
// and the campaign coordinator interleaves countries deterministically on
// one goroutine.
type Supervisor struct {
	cfg      Config
	vantages []*vantage
	m        *metrics
	fuseM    *signals.FusionMetrics
	bus      *obs.Bus

	campaigns []*Campaign
	shareUsed float64
}

// Campaign is one country's (or target set's) view of a shared fleet: its
// own targets, rate budget, fused belief and accounting, over the
// supervisor's shared vantages, breakers and quorum.
type Campaign struct {
	s          *Supervisor
	name       string
	targets    *scanner.TargetSet
	scan       scanner.Config  // base Scan with Rate scaled by RateShare
	transports []TransportFunc // per vantage index; nil entry = spec default

	rep      CampaignReport
	openSeen []bool // per vantage: already listed in rep.Quarantined

	// The scans' working memory, which outlives each round: one RoundData
	// per shard (a thief's rescan overwrites the failed scan's), one per
	// vantage for its corroboration re-probe, and the merged round ScanRound
	// returns; and the round's bookkeeping around them.
	shardRD []scanner.RoundData
	corrRD  []scanner.RoundData
	merged  scanner.RoundData
	scratch *roundScratch

	stealsC      *obs.Counter
	degradedC    *obs.Counter
	selfOutagesC *obs.Counter
}

// CampaignConfig configures one campaign joined to a shared supervisor.
type CampaignConfig struct {
	// Name labels the campaign in metrics, events and reports — the country
	// code in a multi-country fleet. Required and unique per supervisor.
	Name string
	// Targets is the campaign's target set. Required.
	Targets *scanner.TargetSet
	// RateShare is this campaign's share of the fleet's global scan-rate
	// budget, in (0, 1]; shares across campaigns may not exceed 1, which is
	// what enforces the per-vantage budget globally. 0 defaults to 1 (the
	// whole budget — a solo campaign).
	RateShare float64
	// Seed overrides the base scan seed when non-zero, so per-country scans
	// stay reproducible against their solo equivalents.
	Seed uint64
	// Transports overrides the transport factory of named vantages for this
	// campaign only (the same physical vantage observing another country's
	// network). Unknown vantage names are an error.
	Transports map[string]TransportFunc
}

// NewShared validates the configuration and builds a supervisor with no
// campaign attached: a fleet that campaigns — one per monitored country —
// join via Join.
func NewShared(specs []Spec, cfg Config) (*Supervisor, error) {
	if len(specs) == 0 {
		return nil, errors.New("fleet: at least one vantage required")
	}
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		if specs[i].Transport == nil {
			return nil, fmt.Errorf("fleet: vantage %d has no transport factory", i)
		}
		if specs[i].Name == "" {
			specs[i].Name = fmt.Sprintf("v%d", i)
		}
		if seen[specs[i].Name] {
			return nil, fmt.Errorf("fleet: duplicate vantage name %q", specs[i].Name)
		}
		seen[specs[i].Name] = true
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = 2
		if len(specs) < 2 {
			cfg.Quorum = 1
		}
	}
	s := &Supervisor{
		cfg:   cfg,
		m:     newMetrics(cfg.Registry),
		fuseM: signals.NewFusionMetrics(cfg.Registry),
		bus:   cfg.Bus,
	}
	for _, sp := range specs {
		v := &vantage{spec: sp, br: newBreaker(defaultBreaker), health: 1,
			healthG: s.m.health.With(sp.Name)}
		v.healthG.Set(1000)
		s.vantages = append(s.vantages, v)
	}
	return s, nil
}

// Join attaches a campaign to the fleet. Campaigns share the vantages and
// their breakers but keep independent targets, rate budgets, beliefs and
// reports. Join all campaigns before scanning; the set is fixed thereafter.
func (s *Supervisor) Join(cfg CampaignConfig) (*Campaign, error) {
	if cfg.Name == "" {
		return nil, errors.New("fleet: campaign name required")
	}
	for _, c := range s.campaigns {
		if c.name == cfg.Name {
			return nil, fmt.Errorf("fleet: duplicate campaign %q", cfg.Name)
		}
	}
	if cfg.Targets == nil {
		return nil, fmt.Errorf("fleet: campaign %q: Targets required", cfg.Name)
	}
	if cfg.RateShare == 0 {
		cfg.RateShare = 1
	}
	if cfg.RateShare < 0 || cfg.RateShare > 1 {
		return nil, fmt.Errorf("fleet: campaign %q: RateShare %v outside (0, 1]", cfg.Name, cfg.RateShare)
	}
	if s.shareUsed+cfg.RateShare > 1+1e-9 {
		return nil, fmt.Errorf("fleet: campaign %q: rate shares exceed the fleet budget (%.3f + %.3f > 1)",
			cfg.Name, s.shareUsed, cfg.RateShare)
	}
	scan := s.cfg.Scan
	if scan.Rate > 0 {
		scan.Rate = int(float64(scan.Rate)*cfg.RateShare + 0.5)
	}
	if cfg.Seed != 0 {
		scan.Seed = cfg.Seed
	}
	c := &Campaign{
		s:          s,
		name:       cfg.Name,
		targets:    cfg.Targets,
		scan:       scan,
		transports: make([]TransportFunc, len(s.vantages)),
		openSeen:   make([]bool, len(s.vantages)),
		shardRD:    make([]scanner.RoundData, len(s.vantages)),
		corrRD:     make([]scanner.RoundData, len(s.vantages)),
		scratch:    newRoundScratch(len(s.vantages)),

		stealsC:      s.m.steals.With(cfg.Name),
		degradedC:    s.m.degraded.With(cfg.Name),
		selfOutagesC: s.m.selfOutages.With(cfg.Name),
	}
	for name, fn := range cfg.Transports {
		vi := -1
		for i, v := range s.vantages {
			if v.spec.Name == name {
				vi = i
				break
			}
		}
		if vi < 0 {
			return nil, fmt.Errorf("fleet: campaign %q: unknown vantage %q", cfg.Name, name)
		}
		c.transports[vi] = fn
	}
	s.shareUsed += cfg.RateShare
	s.campaigns = append(s.campaigns, c)
	return c, nil
}

// Vantages returns the fleet's vantage names, in vantage order.
func (s *Supervisor) Vantages() []string {
	names := make([]string, len(s.vantages))
	for i, v := range s.vantages {
		names[i] = v.spec.Name
	}
	return names
}

// Report returns the fleet-level aggregation so far: per-campaign tallies
// summed (each round's steals and degradations are attributed to exactly
// one campaign, so the sum counts each once), and every vantage whose
// breaker ever opened listed once, in vantage order.
func (s *Supervisor) Report() CampaignReport {
	var out CampaignReport
	for _, v := range s.vantages {
		if v.everOpen {
			out.Quarantined = append(out.Quarantined, v.spec.Name)
		}
	}
	for _, c := range s.campaigns {
		out.DegradedRounds += c.rep.DegradedRounds
		out.SelfOutages += c.rep.SelfOutages
		out.Steals += c.rep.Steals
		out.Suspects += c.rep.Suspects
		out.FusedAlive += c.rep.FusedAlive
		out.FusedDown += c.rep.FusedDown
		out.FusedHeld += c.rep.FusedHeld
	}
	return out
}

// Name returns the campaign's label.
func (c *Campaign) Name() string { return c.name }

// Targets returns the target set the campaign was joined over.
func (c *Campaign) Targets() *scanner.TargetSet { return c.targets }

// Report returns this campaign's aggregation so far.
func (c *Campaign) Report() CampaignReport {
	out := c.rep
	out.Quarantined = append([]string(nil), c.rep.Quarantined...)
	return out
}

// scanJob is one (shard, vantage) scan assignment within a round.
type scanJob struct {
	shard, vi int
}

type scanOut struct {
	rd  *scanner.RoundData
	err error
}

// roundScratch is a campaign's per-round bookkeeping. Its sizes depend only
// on the fleet (n vantages, so n shards) and on the round's suspect count,
// which stays much the same from round to round, so it is built once at Join
// and each round clears what it reads before writing it.
type roundScratch struct {
	// ScanRound and assign, per vantage or per shard.
	states             []BreakerState
	jobs, next         []scanJob // one steal wave's jobs and the next's
	outs               []scanOut // per job of a wave
	results            []*scanner.RoundData
	owners             []int
	tried              [][]bool // per shard: the vantages that scanned it
	okScans, failScans []int
	poisoned           []bool
	trialUsed          []bool

	// merge: its input, and a placeholder for each shard no vantage scanned.
	rds   []*scanner.RoundData
	holes []scanner.RoundData

	// corroborate, per suspect or per vantage.
	suspects, prevResp    []int // block index and prior belief, in parallel
	blocks                []netmodel.BlockID
	sample                [][]int // per vantage: resp per suspect; nil = no data
	sampleRows            [][]int // per vantage: the row sample[vi] reuses
	weight                []float64
	probed, due           []int
	corr                  []int // the re-probing vantages
	couts                 []scanOut
	overridden, darkVotes []int
	verdicts              []signals.VantageVerdict
	suspectTS             scanner.TargetSet // refilled with blocks each round
}

func newRoundScratch(n int) *roundScratch {
	sc := &roundScratch{
		states:     make([]BreakerState, n),
		jobs:       make([]scanJob, 0, n),
		next:       make([]scanJob, 0, n),
		outs:       make([]scanOut, 0, n),
		results:    make([]*scanner.RoundData, n),
		owners:     make([]int, n),
		tried:      make([][]bool, n),
		okScans:    make([]int, n),
		failScans:  make([]int, n),
		poisoned:   make([]bool, n),
		trialUsed:  make([]bool, n),
		rds:        make([]*scanner.RoundData, 0, n),
		holes:      make([]scanner.RoundData, n),
		sample:     make([][]int, n),
		sampleRows: make([][]int, n),
		weight:     make([]float64, n),
		probed:     make([]int, n),
		due:        make([]int, n),
		corr:       make([]int, 0, n),
		couts:      make([]scanOut, 0, n),
		overridden: make([]int, n),
		darkVotes:  make([]int, n),
		verdicts:   make([]signals.VantageVerdict, 0, 2*n),
	}
	for i := range sc.tried {
		sc.tried[i] = make([]bool, n)
	}
	return sc
}

// reset clears what a round reads before it writes: the per-shard results
// (owners is read only where a result is set), the shards each vantage
// tried, and the per-vantage tallies.
func (sc *roundScratch) reset() {
	clear(sc.results)
	for _, tried := range sc.tried {
		clear(tried)
	}
	clear(sc.okScans)
	clear(sc.failScans)
	clear(sc.poisoned)
	clear(sc.trialUsed)
}

// minShardCoverage is the heartbeat gate: a shard scan below this coverage
// counts as a missed heartbeat and is rescanned elsewhere.
const minShardCoverage = 0.8

// PrevFunc supplies the last believed response count of a block (by target
// block index) for suspect detection; ok=false means no belief yet.
type PrevFunc func(blockIdx int) (resp int, ok bool)

// ScanRound scans round `round` (scheduled at `at`) across the fleet:
// assignment, failover, merge, corroboration and fusion. prev supplies the
// previous per-block belief; nil means there is none yet, so no block is
// suspect and nothing is re-probed.
//
// The returned RoundData is the merged, fusion-corrected round; it is nil
// only on a self-outage (rep.SelfOutage) or a hard error. Shards no vantage
// could scan leave a coverage hole (RoundData.Partial), which the caller
// gates like any salvaged round. The campaign owns the RoundData and
// overwrites it in its next ScanRound, so it is valid until then: a caller
// that keeps a round copies what it keeps. The RoundReport is the caller's.
func (c *Campaign) ScanRound(ctx context.Context, round int, at time.Time, prev PrevFunc) (*scanner.RoundData, *RoundReport, error) {
	s := c.s
	rep := &RoundReport{Round: round}
	n := len(s.vantages)
	sc := c.scratch
	sc.reset()

	// Quarantine expiry: open breakers whose time is up go half-open. A
	// breaker another campaign's round already tripped is observed (and
	// attributed) here too.
	states := sc.states
	for i, v := range s.vantages {
		before := v.br.state
		states[i] = v.br.beginRound(round)
		if states[i] != before {
			c.transition(v, i, round, states[i])
		}
		switch states[i] {
		case Closed:
			rep.Healthy++
			rep.Eligible++
		case Open:
			c.noteOpen(i)
		case HalfOpen:
			rep.Eligible++
		}
	}

	shards := n // a round's primary scan splits into one shard per vantage
	jobs, unassigned := c.assign(states, round)
	rep.Uncovered = unassigned

	// Scan waves with same-round failover: failed shards are stolen by the
	// next healthy vantage that has not tried them yet.
	results, owners, tried := sc.results, sc.owners, sc.tried
	for _, j := range jobs {
		tried[j.shard][j.vi] = true
	}
	okScans := sc.okScans     // successful shard scans per vantage this round
	failScans := sc.failScans // missed heartbeats per vantage this round
	for len(jobs) > 0 {
		wave, outs := jobs, sc.outs[:len(jobs)] // the closure's own, so jobs stays off the heap
		par.ForEach(len(wave), func(i int) {
			outs[i] = c.runScan(ctx, wave[i].vi, round, at, c.targets, wave[i].shard, shards, &c.shardRD[wave[i].shard])
		})
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		next := sc.next[:0]
		for i, j := range jobs { // jobs are in shard order: deterministic
			out := outs[i]
			v := s.vantages[j.vi]
			if out.err == nil && out.rd != nil && !out.rd.RecvDead &&
				out.rd.Coverage() >= minShardCoverage {
				results[j.shard] = out.rd
				owners[j.shard] = j.vi
				okScans[j.vi]++
				continue
			}
			failScans[j.vi]++
			if v.br.failure(round) {
				c.transition(v, j.vi, round, Open)
			}
			s.bus.Emit("shard_failed", func() map[string]any {
				f := map[string]any{"round": round, "shard": j.shard,
					"vantage": v.spec.Name, "campaign": c.name}
				// A blacked-out shard comes back err == nil with a Partial
				// RoundData: the cause is in the round, not the error.
				cause := out.err
				if rd := out.rd; rd != nil {
					f["coverage"], f["send_errors"], f["recv_dead"] = rd.Coverage(), rd.Stats.SendErrors, rd.RecvDead
					if cause == nil {
						cause = rd.Err
					}
				}
				if cause != nil {
					f["error"] = cause.Error()
				}
				return f
			})
			thief := s.thief(j, tried[j.shard])
			if thief < 0 {
				rep.Uncovered++
				continue
			}
			tried[j.shard][thief] = true
			next = append(next, scanJob{shard: j.shard, vi: thief})
			rep.Steals++
			c.stealsC.Inc()
			s.bus.Emit("shard_steal", func() map[string]any {
				return map[string]any{"round": round, "shard": j.shard, "campaign": c.name,
					"from": v.spec.Name, "to": s.vantages[thief].spec.Name}
			})
		}
		sc.jobs, sc.next = next, jobs
		jobs = next
	}

	poisoned := sc.poisoned
	if allNil(results) {
		rep.SelfOutage = true
		rep.Degraded = true
		c.selfOutagesC.Inc()
		c.degradedC.Inc()
		s.bus.Emit("fleet_self_outage", func() map[string]any {
			return map[string]any{"round": round, "eligible": rep.Eligible, "campaign": c.name}
		})
		c.settleRound(rep, okScans, failScans, poisoned, round)
		return nil, rep, nil
	}

	merged := c.merge(results)
	c.corroborate(ctx, round, at, prev, merged, results, owners, poisoned, rep)
	c.settleRound(rep, okScans, failScans, poisoned, round)
	return merged, rep, nil
}

// assign distributes the round's shards (one per vantage) over eligible
// vantages: round-robin in fixed vantage order with a rotating per-round
// offset, half-open vantages capped at one trial shard. Returns the jobs in
// shard order and how many shards found no vantage at all.
func (c *Campaign) assign(states []BreakerState, round int) ([]scanJob, int) {
	n := len(c.s.vantages)
	jobs := c.scratch.jobs[:0]
	unassigned := 0
	trialUsed := c.scratch.trialUsed
	cursor := round % n
	for sh := 0; sh < n; sh++ {
		vi := -1
		for try := 0; try < n; try++ {
			cand := (cursor + try) % n
			if states[cand] == Open || (states[cand] == HalfOpen && trialUsed[cand]) {
				continue
			}
			vi = cand
			break
		}
		if vi < 0 {
			unassigned++
			continue
		}
		if states[vi] == HalfOpen {
			trialUsed[vi] = true
		}
		cursor = vi + 1
		jobs = append(jobs, scanJob{shard: sh, vi: vi})
	}
	return jobs, unassigned
}

// thief picks the next closed vantage (after the failed owner, in fleet
// order) that has not yet tried this shard, or -1.
func (s *Supervisor) thief(j scanJob, tried []bool) int {
	n := len(s.vantages)
	for try := 1; try <= n; try++ {
		vi := (j.vi + try) % n
		if tried[vi] || s.vantages[vi].br.state != Closed {
			continue
		}
		return vi
	}
	return -1
}

// transport returns the factory this campaign uses for a vantage.
func (c *Campaign) transport(vi int) TransportFunc {
	if fn := c.transports[vi]; fn != nil {
		return fn
	}
	return c.s.vantages[vi].spec.Transport
}

// runScan runs one vantage's scan of one shard of targets over a fresh
// transport into rd: a primary shard of the campaign's targets, or (shard 0
// of 1) a full re-probe of the suspect blocks.
func (c *Campaign) runScan(ctx context.Context, vi, round int, at time.Time, targets *scanner.TargetSet, shard, shards int, rd *scanner.RoundData) scanOut {
	tr, clk, err := c.transport(vi)(round, at)
	if err != nil {
		return scanOut{err: err}
	}
	if cl, ok := tr.(io.Closer); ok {
		defer cl.Close()
	}
	if clk == nil {
		if cl, ok := tr.(scanner.Clock); ok {
			clk = cl
		}
	}
	cfg := c.scan
	cfg.Shard, cfg.Shards = shard, shards
	cfg.Epoch = uint32(round + 1)
	cfg.Clock = clk
	rd, err = scanner.New(tr, cfg).RunInto(ctx, targets, rd)
	return scanOut{rd: rd, err: err}
}

// merge folds the per-shard results (placeholding unscanned shards, so their
// targets count as a coverage hole) in shard order.
func (c *Campaign) merge(results []*scanner.RoundData) *scanner.RoundData {
	shards := len(results)
	rds := c.scratch.rds[:0]
	for sh, rd := range results {
		if rd == nil {
			hole := &c.scratch.holes[sh]
			*hole = scanner.RoundData{
				Targets:      c.targets,
				ShardTargets: scanner.ShardLen(c.targets.Len(), sh, shards),
				Partial:      true,
			}
			rd = hole
		}
		rds = append(rds, rd)
	}
	return scanner.MergeRounds(&c.merged, c.targets, rds)
}

// corroborate finds suspect blocks (believed alive, now reading depressed),
// re-probes them in full from every closed vantage, and fuses the verdicts
// per block: any full-block alive evidence overrides the dark reading, a
// coverage-weighted dark quorum confirms the transition, and anything short
// of either holds the previous belief. Vantages whose dark samples were
// overridden on enough blocks are "poisoned" — silently feeding darkness —
// and charged a missed heartbeat even though their scans looked complete.
func (c *Campaign) corroborate(ctx context.Context, round int, at time.Time, prev PrevFunc,
	merged *scanner.RoundData, results []*scanner.RoundData, owners []int,
	poisoned []bool, rep *RoundReport) {
	s := c.s
	if prev == nil {
		return
	}
	sc := c.scratch

	suspects, prevResp := sc.suspects[:0], sc.prevResp[:0] // block index and prior belief, in parallel
	for bi := range merged.Blocks {
		p, ok := prev(bi)
		if ok && p > 0 && int(merged.Blocks[bi].RespCount) < p {
			suspects = append(suspects, bi)
			prevResp = append(prevResp, p)
		}
	}
	sc.suspects, sc.prevResp = suspects, prevResp
	rep.Suspects = len(suspects)
	if len(suspects) == 0 {
		return
	}

	// Per-vantage sample verdicts from the primary shards already scanned.
	sample, weight, probed, due := sc.sample, sc.weight, sc.probed, sc.due
	clear(sample)
	clear(weight)
	clear(probed)
	clear(due)
	for sh, rd := range results {
		if rd == nil {
			continue
		}
		vi := owners[sh]
		if sample[vi] == nil {
			row := sc.sampleRows[vi]
			if cap(row) < len(suspects) {
				row = make([]int, len(suspects))
			} else {
				row = row[:len(suspects)]
				clear(row)
			}
			sc.sampleRows[vi], sample[vi] = row, row
		}
		for si, bi := range suspects {
			sample[vi][si] += int(rd.Blocks[bi].RespCount)
		}
		probed[vi] += rd.Probed
		due[vi] += rd.ShardTargets
	}
	for vi := range s.vantages {
		if due[vi] > 0 {
			weight[vi] = float64(probed[vi]) / float64(due[vi])
		}
	}

	// Full-block corroboration re-probes from every closed vantage, over the
	// suspect blocks: a sorted, duplicate-free subset of the targets, so the
	// suspect set's block si is suspects[si].
	blocks := sc.blocks[:0]
	for _, bi := range suspects {
		blocks = append(blocks, c.targets.Blocks()[bi])
	}
	sc.blocks = blocks
	suspectTS := &sc.suspectTS
	corr := sc.corr[:0]
	if err := suspectTS.Refill(blocks); err == nil { // else no re-probe: fusion below works from samples alone
		for vi, v := range s.vantages {
			if v.br.state == Closed {
				corr = append(corr, vi)
			}
		}
	}
	couts := sc.couts[:len(corr)]
	par.ForEach(len(corr), func(i int) {
		couts[i] = c.runScan(ctx, corr[i], round, at, suspectTS, 0, 1, &c.corrRD[corr[i]])
	})

	// Fuse per suspect block, in block order.
	overridden, darkVotes := sc.overridden, sc.darkVotes // dark sample votes overridden, and cast, per vantage
	clear(overridden)
	clear(darkVotes)
	verdicts := sc.verdicts // FuseBlock copies what it keeps
	for si, bi := range suspects {
		verdicts = verdicts[:0]
		for vi, v := range s.vantages {
			if sample[vi] == nil {
				continue
			}
			verdicts = append(verdicts, signals.VantageVerdict{
				Vantage: v.spec.Name, Resp: sample[vi][si], Weight: weight[vi],
			})
			if sample[vi][si] == 0 {
				darkVotes[vi]++
			}
		}
		for ci, vi := range corr {
			out := couts[ci]
			if out.err != nil || out.rd == nil || out.rd.RecvDead {
				continue
			}
			verdicts = append(verdicts, signals.VantageVerdict{
				Vantage: s.vantages[vi].spec.Name,
				Resp:    int(out.rd.Blocks[si].RespCount),
				Weight:  out.rd.Coverage(),
				Full:    true,
			})
		}
		fused, outcome := signals.FuseBlock(prevResp[si], int(merged.Blocks[bi].RespCount), verdicts, s.cfg.Quorum)
		s.fuseM.Observe(outcome)
		switch outcome {
		case signals.FuseAlive:
			rep.FusedAlive++
			for vi := range s.vantages {
				if sample[vi] != nil && sample[vi][si] == 0 {
					overridden[vi]++
				}
			}
		case signals.FuseDown:
			rep.FusedDown++
		case signals.FuseHeld:
			rep.FusedHeld++
		}
		merged.Blocks[bi].RespCount = uint16(fused)
	}

	// Poisoned-heartbeat check: a vantage whose dark samples were overridden
	// on at least max(2, half the fused-alive blocks) fed silent darkness
	// this round; its scan "succeeded" but its heartbeat did not. Requiring
	// that every one of its dark votes was overridden keeps a vantage that
	// also saw genuine darkness (shared with the quorum) out of the net.
	if rep.FusedAlive > 0 {
		threshold := (rep.FusedAlive + 1) / 2
		if threshold < 2 {
			threshold = 2
		}
		for vi, v := range s.vantages {
			if overridden[vi] < threshold || overridden[vi] < darkVotes[vi] {
				continue
			}
			poisoned[vi] = true
			s.bus.Emit("vantage_poisoned", func() map[string]any {
				return map[string]any{"round": round, "vantage": v.spec.Name,
					"campaign": c.name, "overridden": overridden[vi]}
			})
		}
	}

	s.bus.Emit("fleet_fusion", func() map[string]any {
		return map[string]any{"round": round, "suspects": rep.Suspects, "campaign": c.name,
			"alive": rep.FusedAlive, "down": rep.FusedDown, "held": rep.FusedHeld}
	})
}

// healthAlpha is the EWMA weight of the newest heartbeat in the per-vantage
// health score.
const healthAlpha = 0.3

// settleRound applies end-of-round heartbeats (including deferred half-open
// trial verdicts and poisoning), updates health EWMAs, and aggregates the
// campaign report. All in fixed vantage order.
func (c *Campaign) settleRound(rep *RoundReport, okScans, failScans []int, poisoned []bool, round int) {
	s := c.s
	for vi, v := range s.vantages {
		if okScans[vi] == 0 && failScans[vi] == 0 && !poisoned[vi] {
			continue // did not participate: no heartbeat either way
		}
		healthy := failScans[vi] == 0 && okScans[vi] > 0 && !poisoned[vi]
		switch {
		case healthy:
			// Deferred on purpose: a half-open trial only closes the breaker
			// after it survived the fusion poison check, so a stalled vantage
			// whose trial scan "completed" (all-dark) stays quarantined.
			if v.br.success() {
				c.transition(v, vi, round, Closed)
			}
		case poisoned[vi] && v.br.state != Open:
			// Shard-scan failures were charged at wave time; poisoning is the
			// one failure discovered only after fusion.
			if v.br.failure(round) {
				c.transition(v, vi, round, Open)
			}
		}
		outcome := 0.0
		if healthy {
			outcome = 1
		}
		v.health = (1-healthAlpha)*v.health + healthAlpha*outcome
		v.healthG.Set(int64(v.health*1000 + 0.5))
	}

	if rep.Healthy < s.cfg.Quorum || rep.Uncovered > 0 {
		rep.Degraded = true
		if !rep.SelfOutage { // self-outage already counted the round
			c.degradedC.Inc()
		}
	}

	c.rep.Steals += rep.Steals
	c.rep.Suspects += rep.Suspects
	c.rep.FusedAlive += rep.FusedAlive
	c.rep.FusedDown += rep.FusedDown
	c.rep.FusedHeld += rep.FusedHeld
	if rep.Degraded {
		c.rep.DegradedRounds++
	}
	if rep.SelfOutage {
		c.rep.SelfOutages++
	}
}

// noteOpen records a vantage in this campaign's quarantine list, once.
func (c *Campaign) noteOpen(vi int) {
	if c.openSeen[vi] {
		return
	}
	c.openSeen[vi] = true
	c.s.vantages[vi].everOpen = true
	c.rep.Quarantined = append(c.rep.Quarantined, c.s.vantages[vi].spec.Name)
}

// transition records a breaker state change on metrics, events and the
// quarantine report of the campaign whose round observed it.
func (c *Campaign) transition(v *vantage, vi, round int, to BreakerState) {
	c.s.m.transitions.With(to.String()).Inc()
	if to == Open {
		c.noteOpen(vi)
	}
	c.s.bus.Emit("breaker_transition", func() map[string]any {
		return map[string]any{"round": round, "vantage": v.spec.Name,
			"campaign": c.name, "to": to.String(), "quarantine": v.br.quarantine}
	})
}

func allNil(rds []*scanner.RoundData) bool {
	for _, rd := range rds {
		if rd != nil {
			return false
		}
	}
	return true
}
