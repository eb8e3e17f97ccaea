// Package countrymon is a country-scale Internet outage monitor built on
// active full-block ICMP scans, reproducing the measurement system of
// "Tracking Internet Disruptions in Ukraine: Insights from Three Years of
// Active Full Block Scans" (IMC 2025).
//
// The Monitor orchestrates the full pipeline: a ZMap-style scanner probes
// every address of the target /24 blocks over a pluggable transport (the
// simulated war scenario, a UDP tunnel, or a raw socket), observations
// accumulate in a round-indexed store, BGP snapshots mark routedness, and
// the three availability signals — BGP★ routed blocks, FBS■ active full
// blocks, IPS▲ responsive addresses — are compared against a seven-day
// moving average to detect outages per AS or per region.
//
//	mon, _ := countrymon.New(countrymon.Options{
//	    Transport: transport,          // e.g. simnet.Network or UDP tunnel
//	    // or Fleet: a campaign joined to a fleet.NewShared supervisor
//	    Clock:     clock,
//	    Targets:   prefixes,           // e.g. from a RIPE delegation file
//	    Start:     start, Rounds: rounds, Interval: 2 * time.Hour,
//	})
//	for mon.NextRound() { mon.ScanRound() }
//	det := mon.DetectAS(25482)
//
// # Running a campaign
//
// Step handles one round under a context — PreRound, then the scan unless
// PreRound marked the round missing — and returns its Stats; Run loops over
// Step until the campaign is done:
//
//	rc := countrymon.RunConfig{PreRound: func(round int) error { ... }}
//	for mon.NextRound() {
//	    st, err := mon.Step(ctx, rc)
//	    ...
//	}
//
// Cancelling ctx stops the campaign at the next round boundary; when a
// CheckpointPath is configured, a final checkpoint is written before Step
// returns, so the campaign resumes exactly where it stopped. The classic
// zero-argument loop above keeps working: ScanRound is
// Step(context.Background(), RunConfig{}). How each round ended (scanned,
// salvaged or missing, and why) and each checkpoint written are events on
// Options.Bus.
//
// # Observability
//
// Options.Registry and Options.Bus attach the monitor (and the scanner
// under it) to an internal/obs metrics registry and event bus. Every round,
// checkpoint, retry and detection then shows up live on /metrics and
// /events (see internal/obs and the README's Observability section); with
// both nil the instrumentation reduces to nil checks. The bus is the one
// event stream: an in-process consumer reads it with Bus.Since.
//
// # Errors
//
// Sentinels and types replace string matching: ErrCampaignComplete (the
// timeline is exhausted), ErrNoCheckpoint (Checkpoint without a configured
// path), and ResumeMismatchError (ResumeFrom names a checkpoint of a
// different campaign, carrying both conflicting timelines/blocks). Use
// errors.Is / errors.As. New's other refusals — nothing to scan over, no
// Rounds, bad Targets, a Fleet campaign joined over other blocks — are
// plain errors.
package countrymon

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"countrymon/internal/bgp"
	"countrymon/internal/dataset"
	"countrymon/internal/fleet"
	"countrymon/internal/geodb"
	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
	"countrymon/internal/regional"
	"countrymon/internal/scanner"
	"countrymon/internal/serve"
	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

// Re-exported building blocks, so downstream code works with one import.
type (
	// Addr is an IPv4 address.
	Addr = netmodel.Addr
	// Prefix is a CIDR prefix.
	Prefix = netmodel.Prefix
	// BlockID identifies a /24 block.
	BlockID = netmodel.BlockID
	// ASN is an autonomous-system number.
	ASN = netmodel.ASN
	// Region is one of Ukraine's 26 analysed regions.
	Region = netmodel.Region
	// Outage is a detected disruption event.
	Outage = signals.Outage
	// Detection is a per-round and per-event outage verdict.
	Detection = signals.Detection
	// Transport carries raw IPv4 datagrams.
	Transport = scanner.Transport
	// Clock abstracts time for virtual-time scanning.
	Clock = scanner.Clock
	// Stats summarizes one scan round.
	Stats = scanner.Stats
	// FleetReport aggregates a fleet campaign's resilience outcome:
	// quarantined vantages, degraded rounds, steals and fusion tallies.
	FleetReport = fleet.CampaignReport
)

// Signal kind bits of a Detection.
const (
	SignalBGP = signals.SignalBGP
	SignalFBS = signals.SignalFBS
	SignalIPS = signals.SignalIPS
)

// ParsePrefix parses "a.b.c.d/n".
func ParsePrefix(s string) (Prefix, error) { return netmodel.ParsePrefix(s) }

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) { return netmodel.ParseAddr(s) }

// Options configures a Monitor.
type Options struct {
	// Transport carries probes; Clock drives pacing (defaults to the wall
	// clock). When Transport implements Clock (the simulated network
	// does), it is used as the clock automatically.
	Transport Transport
	Clock     Clock

	// Targets are the probed prefixes (de-aggregated to /24 blocks);
	// Exclude removes ranges, ZMap-blocklist style.
	Targets []Prefix
	Exclude []Prefix

	// Start, Interval and Rounds define the measurement timeline: Rounds
	// scans, Interval apart, the first at Start.
	Start    time.Time
	Interval time.Duration
	Rounds   int

	// Rate is the probing rate in packets/second (0 = the default 8000, the
	// campaign's ethical budget; negative = unlimited); Seed makes probe
	// order and validation deterministic.
	Rate int
	Seed uint64

	// Fleet runs every round over a campaign joined to a supervised
	// multi-vantage fleet (fleet.NewShared, then Join): each vantage scans
	// its share of the round over its own transports, circuit breakers
	// quarantine flapping vantages, failed shards fail over to healthy
	// vantages within the round, and suspect block transitions need k-of-n
	// corroboration before they count as down. A round on which no vantage
	// produced usable data is recorded missing — a self-outage, not a target
	// outage. Several monitors may join one supervisor and so share its
	// vantage pool and global rate budget. The campaign must have been
	// joined over exactly this monitor's target blocks; New refuses any
	// other. When set, Transport may be nil and is ignored.
	Fleet *fleet.Campaign

	// Country is the ISO code of the monitored country — the home country
	// regional classification counts shares against. Empty means Ukraine
	// (geodb.CountryUA), the paper's campaign.
	Country string

	// Origins maps each /24 block's origin AS. When nil, AS-level queries
	// need ApplyBGPSnapshot to have been called (origins are learned from
	// routing).
	Origins map[BlockID]ASN

	// CheckpointPath enables durability: the store is written there (via an
	// atomic temp-file rename) every CheckpointEvery completed rounds and at
	// campaign end, so a killed campaign loses at most CheckpointEvery
	// rounds of work.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in rounds (default 16 when
	// CheckpointPath is set).
	CheckpointEvery int
	// ResumeFrom restarts a killed campaign from a checkpoint file: the
	// store is loaded, validated against the options, and scanning resumes
	// at the first round not yet handled.
	ResumeFrom string

	// MinCoverage is the probed-target fraction below which a salvaged
	// partial round is treated like a vantage outage in signal derivation.
	// Zero means signals.DefaultMinCoverage; negative disables the gate.
	MinCoverage float64

	// StreamSignals is read by nothing.
	//
	// Deprecated: ignored, the Monitor always folds each handled round into
	// its warm signal series (signals.NewStreamingBuilder). The field stays
	// declared only until the bench/ ledger stops naming it.
	StreamSignals bool
	// RoundLogPath enables the append-only per-round journal: each handled
	// round is appended (one durable O(blocks) write) before it counts as
	// handled, and on startup the complete records of an existing journal
	// are replayed over the store (and over ResumeFrom's checkpoint, when
	// both are given), so a killed campaign resumes at exactly its first
	// unfinished round. A torn final record — a crash mid-append — is
	// trimmed before the first new append. A journal alone is enough to
	// resume, and a checkpoint does not shorten the replay: the journal is
	// never truncated and every record in it is replayed from the first.
	RoundLogPath string

	// Registry, when non-nil, receives the monitor's, scanner's and signal
	// pipeline's live metrics (round outcomes, durations, coverage,
	// checkpoint latency, probe/reply counters — see the README's metric
	// catalogue). It may be shared with other subsystems; registration is
	// idempotent.
	Registry *obs.Registry
	// Bus, when non-nil, receives the structured campaign event stream
	// (round started/scanned/salvaged/missing, checkpoint written, retry
	// taken, detection fired) for /events streaming.
	Bus *obs.Bus
}

// Monitor is the orchestrated measurement pipeline.
type Monitor struct {
	opts    Options
	tl      *timeline.Timeline
	targets *scanner.TargetSet
	store   *dataset.Store
	origins map[BlockID]ASN
	round   int

	// sinceCkpt counts rounds handled since the last checkpoint write.
	sinceCkpt int

	// camp is the fleet campaign the monitor scans through (Options.Fleet;
	// nil outside fleet mode).
	camp *fleet.Campaign
	// rd is the solo scan's RoundData, refilled every round: the store
	// copies a round's values out, and nothing else keeps it.
	rd scanner.RoundData

	// Observability: bus receives events, metrics/scanM/sigM are the
	// per-subsystem instruments (never nil; inert without a Registry),
	// campaign accumulates Stats across scanned rounds.
	bus      *obs.Bus
	metrics  *monMetrics
	scanM    *scanner.Metrics
	sigM     *signals.Metrics
	campaign Stats

	// sigBuild is the warm streaming signals builder (nil until the first
	// query, and again after an invalidation); space is its Space.
	sigBuild *signals.Builder
	space    *netmodel.Space

	// serveStore, when attached, is the serving read path's timeline store:
	// every handled round is sealed into it as soon as it folds.
	serveStore *serve.Store

	// roundLog is the append-only per-round journal (nil without
	// Options.RoundLogPath).
	roundLog *dataset.RoundLog

	classifier     *regional.Classifier
	classification *regional.Result
}

// New validates options and builds the monitor.
func New(opts Options) (*Monitor, error) {
	if opts.Transport == nil && opts.Fleet == nil {
		return nil, errors.New("countrymon: no Transport or Fleet to scan over")
	}
	if opts.Interval <= 0 {
		opts.Interval = timeline.DefaultInterval
	}
	if opts.Start.IsZero() {
		opts.Start = time.Now().UTC().Truncate(opts.Interval)
	}
	if opts.Rounds <= 0 {
		return nil, errors.New("countrymon: Rounds must be set")
	}
	if opts.Clock == nil {
		if c, ok := opts.Transport.(Clock); ok {
			opts.Clock = c
		} else {
			opts.Clock = scanner.RealClock{}
		}
	}
	targets, err := scanner.NewTargetSet(opts.Targets, opts.Exclude)
	if err != nil {
		return nil, fmt.Errorf("countrymon: %w", err)
	}
	if opts.CheckpointPath != "" && opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 16
	}
	tl := timeline.New(opts.Start, opts.Start.Add(time.Duration(opts.Rounds-1)*opts.Interval), opts.Interval)
	m := &Monitor{
		opts:    opts,
		tl:      tl,
		targets: targets,
		store:   dataset.NewStore(tl, targets.Blocks()),
		origins: make(map[BlockID]ASN),
		bus:     opts.Bus,
		scanM:   scanner.NewMetrics(opts.Registry),
		sigM:    signals.NewMetrics(opts.Registry),
	}
	m.metrics = newMonMetrics(opts.Registry, m.Country())
	if opts.Fleet != nil {
		if err := checkFleetTargets(opts.Fleet, targets.Blocks()); err != nil {
			return nil, err
		}
		m.camp = opts.Fleet
	}
	if opts.ResumeFrom != "" {
		if err := m.resume(opts.ResumeFrom); err != nil {
			return nil, err
		}
	}
	// resumed names the file that last positioned the campaign cursor, if any.
	resumed := opts.ResumeFrom
	if opts.RoundLogPath != "" {
		before := m.round
		if err := m.attachRoundLog(); err != nil {
			return nil, err
		}
		if m.round > before {
			resumed = opts.RoundLogPath
		}
	}
	if resumed != "" {
		m.metrics.resumeRound.Set(int64(m.round))
		m.bus.Emit("resume", func() map[string]any {
			return map[string]any{"round": m.round, "path": resumed}
		})
	}
	for b, asn := range opts.Origins {
		m.origins[b] = asn
	}
	return m, nil
}

// checkFleetTargets returns an error naming the first difference between
// the blocks camp was joined over and the monitor's own target blocks. The
// fleet indexes a round's blocks in its target order and the monitor in its
// store's, so any difference would credit one block's belief to another, or
// index past the store.
func checkFleetTargets(camp *fleet.Campaign, blocks []BlockID) error {
	joined := camp.Targets().Blocks()
	for i := range min(len(joined), len(blocks)) {
		if joined[i] != blocks[i] {
			return fmt.Errorf("countrymon: fleet campaign %q block %d is %v, Targets' is %v",
				camp.Name(), i, joined[i], blocks[i])
		}
	}
	if len(joined) != len(blocks) {
		return fmt.Errorf("countrymon: fleet campaign %q has %d target blocks, Targets has %d",
			camp.Name(), len(joined), len(blocks))
	}
	return nil
}

// attachRoundLog replays any existing journal at Options.RoundLogPath over
// the store — recovering rounds the last checkpoint missed — and opens it
// for appending.
func (m *Monitor) attachRoundLog() error {
	path := m.opts.RoundLogPath
	if _, err := os.Stat(path); err == nil {
		if _, err := dataset.ReplayRoundLog(m.store, path); err != nil {
			return fmt.Errorf("countrymon: round log replay: %w", err)
		}
		m.round = m.store.NextUndone()
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("countrymon: round log: %w", err)
	}
	rl, err := dataset.OpenRoundLog(path, m.store)
	if err != nil {
		return fmt.Errorf("countrymon: round log: %w", err)
	}
	m.roundLog = rl
	return nil
}

// Close releases campaign resources (currently the round log). The monitor
// must not be used afterwards.
func (m *Monitor) Close() error {
	if m.roundLog != nil {
		err := m.roundLog.Close()
		m.roundLog = nil
		return err
	}
	return nil
}

// journalRound appends the just-handled round to the round log, if enabled.
func (m *Monitor) journalRound(round int) error {
	if m.roundLog == nil {
		return nil
	}
	if err := m.roundLog.Append(m.store, round); err != nil {
		return fmt.Errorf("countrymon: round log: %w", err)
	}
	return nil
}

// resume replaces the fresh store with a checkpointed one and positions the
// campaign at its first unscanned round. The checkpoint must describe the
// same campaign — identical timeline and identical target blocks — or a
// *ResumeMismatchError carrying both sides of the conflict is returned.
func (m *Monitor) resume(path string) error {
	st, err := dataset.Load(path)
	if err != nil {
		return fmt.Errorf("countrymon: resume: %w", err)
	}
	if err := CheckResume(path, st, m.tl, m.store.Blocks()); err != nil {
		return err
	}
	m.store = st
	m.round = st.NextUndone()
	return nil
}

// CheckResume reports whether st — the checkpoint or dataset loaded from
// path — describes the campaign with timeline tl over blocks: same start,
// interval and round count, same block list. It returns nil or a
// *ResumeMismatchError carrying both sides of the first conflict.
func CheckResume(path string, st *dataset.Store, tl *timeline.Timeline, blocks []BlockID) error {
	ctl := st.Timeline()
	got := st.Blocks()
	mm := &ResumeMismatchError{
		Path:         path,
		WantTimeline: TimelineSpec{Start: tl.Start(), Interval: tl.Interval(), Rounds: tl.NumRounds()},
		GotTimeline:  TimelineSpec{Start: ctl.Start(), Interval: ctl.Interval(), Rounds: ctl.NumRounds()},
		WantBlocks:   len(blocks),
		GotBlocks:    len(got),
		FirstDiff:    -1,
	}
	if !mm.GotTimeline.Equal(mm.WantTimeline) || len(got) != len(blocks) {
		return mm
	}
	for i := range blocks {
		if got[i] != blocks[i] {
			mm.FirstDiff, mm.WantBlock, mm.GotBlock = i, blocks[i], got[i]
			return mm
		}
	}
	return nil
}

// Timeline returns the campaign timeline.
func (m *Monitor) Timeline() *timeline.Timeline { return m.tl }

// Store exposes the raw observation store.
func (m *Monitor) Store() *dataset.Store { return m.store }

// Round returns the next round index to be scanned.
func (m *Monitor) Round() int { return m.round }

// NextRound reports whether another round remains.
func (m *Monitor) NextRound() bool { return m.round < m.tl.NumRounds() }

// MarkMissing records the current round as a vantage outage (zero coverage)
// and skips it. Like ScanRound it returns ErrCampaignComplete once the
// timeline is exhausted and surfaces the checkpoint error the cadence may
// produce, so skipped rounds are as durable as scanned ones.
func (m *Monitor) MarkMissing() error {
	if !m.NextRound() {
		return ErrCampaignComplete
	}
	return m.recordMissing("vantage")
}

// recordMissing records the current round as missing with zero coverage —
// nothing of it was measured — and finishes it.
func (m *Monitor) recordMissing(reason string) error {
	round := m.round
	m.storeMissing(round, 0)
	m.metrics.coverage.Observe(0)
	m.metrics.lastRound.Set(int64(round))
	m.bus.Emit("round_missing", func() map[string]any {
		return map[string]any{"round": round, "reason": reason}
	})
	return m.finishRound(round)
}

// storeMissing writes round into the store as missing — no usable data — at
// the coverage its probes achieved, and counts it.
func (m *Monitor) storeMissing(round int, coverage float64) {
	m.store.SetCoverage(round, coverage)
	m.store.SetMissing(round)
	m.metrics.roundsMissing.Inc()
}

// finishRound is the one epilogue every handled round — scanned, salvaged or
// missing — passes through once the store holds its outcome: journal it, fold
// it into the signals, seal it into the serve store, advance the campaign,
// checkpoint when due, announce completion. A journal failure returns before
// the round counts as handled, so it is scanned again rather than lost.
func (m *Monitor) finishRound(round int) error {
	if err := m.journalRound(round); err != nil {
		return err
	}
	m.foldRound(round)
	m.advanceServe(round)
	m.round++
	if err := m.maybeCheckpoint(); err != nil {
		return err
	}
	if !m.NextRound() {
		m.bus.Emit("campaign_complete", func() map[string]any {
			return map[string]any{"rounds": m.tl.NumRounds()}
		})
	}
	return nil
}

// ScanRound handles the current round without cancellation or a PreRound:
// it is Step(context.Background(), RunConfig{}).
func (m *Monitor) ScanRound() (Stats, error) {
	return m.Step(context.Background(), RunConfig{})
}

// scan probes every target once and ingests the results at the current round
// index. A round salvaged by the scanner's error budget is recorded with its
// achieved coverage (signals gate it via Options.MinCoverage); a round whose
// receive path died, or on which the whole fleet was dark, is recorded as
// missing, like a vantage outage. Only a hard scan failure — or ctx being
// cancelled mid-round, which discards the partial round so it rescans on
// resume — returns an error.
func (m *Monitor) scan(ctx context.Context) (Stats, error) {
	if !m.NextRound() {
		return Stats{}, ErrCampaignComplete
	}
	// Align with the round's scheduled time (advances virtual clocks;
	// sleeps until the slot on real deployments).
	at := m.tl.Time(m.round)
	if wait := at.Sub(m.opts.Clock.Now()); wait > 0 {
		m.opts.Clock.Sleep(wait)
	}
	round := m.round
	m.bus.Emit("round_start", func() map[string]any {
		return map[string]any{"round": round, "at": roundAt(at)}
	})
	var (
		rd  *scanner.RoundData
		err error
	)
	if m.camp != nil {
		var rep *fleet.RoundReport
		rd, rep, err = m.camp.ScanRound(ctx, round, at, m.prevBelief())
		if err == nil && rep.SelfOutage {
			// The fleet, not the target, was dark: record the round missing
			// so signal derivation treats it exactly like a vantage outage
			// and no block series carries fabricated zeros.
			return Stats{}, m.recordMissing("fleet_self_outage")
		}
	} else {
		rd, err = scanner.New(m.opts.Transport, scanner.Config{
			Rate:    m.opts.Rate,
			Seed:    m.opts.Seed,
			Epoch:   uint32(m.round + 1),
			Clock:   m.opts.Clock,
			Metrics: m.scanM,
			Events:  m.bus,
		}).RunInto(ctx, m.targets, &m.rd)
	}
	if err != nil {
		return Stats{}, err
	}
	outcome := "round_scanned"
	if rd.RecvDead {
		// Probes may have gone out, but with the receive path dead the
		// response counts are not trustworthy measurements. Record the
		// achieved send coverage (consistently with salvaged rounds) with
		// the round marked missing.
		m.storeMissing(round, rd.Coverage())
		outcome = "round_missing"
	} else {
		m.store.AddRoundData(m.round, rd)
		if rd.Partial {
			m.store.SetCoverage(m.round, rd.Coverage())
			m.metrics.roundsSalvaged.Inc()
			outcome = "round_salvaged"
		} else {
			m.metrics.roundsScanned.Inc()
		}
		m.store.SetDone(m.round)
	}
	m.campaign.Add(rd.Stats)
	m.metrics.roundDur.Observe(rd.Stats.Elapsed.Seconds())
	m.metrics.coverage.Observe(rd.Coverage())
	m.metrics.lastRound.Set(int64(m.round))
	m.bus.Emit(outcome, func() map[string]any {
		f := map[string]any{
			"round": round, "sent": rd.Stats.Sent, "valid": rd.Stats.Valid,
			"coverage": rd.Coverage(),
		}
		if rd.RecvDead {
			f["reason"] = "recv_dead"
		}
		return f
	})
	return rd.Stats, m.finishRound(round)
}

// Checkpoint writes the store to Options.CheckpointPath atomically and
// durably: the temp file is fsynced before the rename (a rename only
// atomically replaces content that has actually reached the disk) and the
// containing directory is fsynced after it, so a crash at any point leaves
// either the old checkpoint or the complete new one — never a torn or
// empty file. It returns ErrNoCheckpoint when no path is configured.
func (m *Monitor) Checkpoint() error {
	if m.opts.CheckpointPath == "" {
		return ErrNoCheckpoint
	}
	t0 := time.Now()
	tmp := m.opts.CheckpointPath + ".tmp"
	if err := m.store.SaveSync(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, m.opts.CheckpointPath); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(filepath.Dir(m.opts.CheckpointPath)); err != nil {
		return err
	}
	m.sinceCkpt = 0
	m.metrics.ckptTotal.Inc()
	m.metrics.ckptDur.ObserveSince(t0)
	m.bus.Emit("checkpoint", func() map[string]any {
		return map[string]any{"round": m.round, "path": m.opts.CheckpointPath}
	})
	return nil
}

// prevBelief returns the fleet's previous-belief lookup: each block's
// response count from the most recent round with ingested data — handled and
// not missing, whether scanned live or recovered from a checkpoint or the
// journal — or no belief at all before the first such round.
func (m *Monitor) prevBelief() fleet.PrevFunc {
	last := m.round - 1
	for last >= 0 && (!m.store.Done(last) || m.store.Missing(last)) {
		last--
	}
	if last < 0 {
		return func(int) (int, bool) { return 0, false }
	}
	return func(bi int) (int, bool) { return m.store.Resp(bi, last), true }
}

// FleetReport returns the fleet campaign report when the monitor runs a
// vantage fleet (Options.Fleet); ok is false otherwise. The report covers
// this monitor's campaign only, not the others joined to its supervisor.
func (m *Monitor) FleetReport() (FleetReport, bool) {
	if m.camp == nil {
		return FleetReport{}, false
	}
	return m.camp.Report(), true
}

// Country returns the monitored country's ISO code (Options.Country,
// defaulting to Ukraine).
func (m *Monitor) Country() string {
	if m.opts.Country != "" {
		return m.opts.Country
	}
	return geodb.CountryUA
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash. Some
// filesystems do not support fsync on directories; those errors are ignored
// (the rename itself is still atomic there).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// maybeCheckpoint persists the store when the cadence is due or the
// campaign just completed.
func (m *Monitor) maybeCheckpoint() error {
	if m.opts.CheckpointPath == "" {
		return nil
	}
	m.sinceCkpt++
	if m.sinceCkpt >= m.opts.CheckpointEvery || !m.NextRound() {
		return m.Checkpoint()
	}
	return nil
}

// ApplyBGPSnapshot marks routedness for the current or given round from a
// collector snapshot (pass round < 0 for "the round about to be scanned").
// Origins are learned from the snapshot for AS-level queries.
func (m *Monitor) ApplyBGPSnapshot(snap *bgp.Snapshot, round int) {
	if round < 0 {
		round = m.round
	}
	if round >= m.tl.NumRounds() {
		return
	}
	originsChanged := false
	for bi, blk := range m.store.Blocks() {
		asn, routed := snap.BlockOrigin[blk]
		m.store.SetRound(bi, round, m.store.Resp(bi, round), routed)
		if routed && m.origins[blk] != asn {
			m.origins[blk] = asn
			originsChanged = true
		}
	}
	m.invalidateFor(round, originsChanged)
}

// SetRouted marks one block's routedness directly, for callers that know it
// per block (the simulator's ground truth, a caller's own table-dump
// pipeline) rather than as a bgp.Snapshot.
func (m *Monitor) SetRouted(blk BlockID, round int, routed bool, origin ASN) {
	bi := m.store.BlockIndex(blk)
	if bi < 0 {
		return
	}
	m.store.SetRound(bi, round, m.store.Resp(bi, round), routed)
	originsChanged := false
	if origin != 0 && m.origins[blk] != origin {
		m.origins[blk] = origin
		originsChanged = true
	}
	m.invalidateFor(round, originsChanged)
}

func (m *Monitor) invalidate() { m.sigBuild = nil }

// foldRound advances the warm builder past the just-handled round; a failed
// fold drops the builder, so the next query rebuilds it. Before the first
// query there is nothing to fold into: the builder is built lazily over
// whatever the store holds by then.
func (m *Monitor) foldRound(round int) {
	if m.sigBuild != nil && m.sigBuild.Fold(round) != nil {
		m.invalidate()
	}
}

// AttachServe connects a serving read-path store to the monitor. Every round
// the monitor handles from now on (scanned or marked missing) is sealed into
// the store right after it folds into the signals builder, so attached
// queries always see a watermark that trails the campaign by zero rounds.
// Rounds already handled before the attach are sealed immediately.
func (m *Monitor) AttachServe(s *serve.Store) {
	m.serveStore = s
	if m.round > 0 {
		_ = s.AdvanceTo(m.round)
	}
}

// advanceServe seals a just-folded round into the attached serve store.
// finishRound calls it once per handled round, right after foldRound, so the
// watermark can never skip a round.
func (m *Monitor) advanceServe(round int) {
	if m.serveStore != nil {
		_ = m.serveStore.Advance(round)
	}
}

// ServeASSource adapts an AS's signal series for a serve.Store entity. The
// returned source re-resolves the builder on every sample, so it stays
// correct across builder invalidations (origin learning, routedness edits):
// sealed copies in the store were made at fold time, and post-invalidation
// reads sample the rebuilt series.
func (m *Monitor) ServeASSource(asn ASN) serve.Source {
	return serveASSource{m: m, asn: asn}
}

type serveASSource struct {
	m   *Monitor
	asn ASN
}

func (s serveASSource) Sample(r int) (bgpV, fbs, ips float32, missing bool) {
	es := s.m.builder().AS(s.asn)
	return es.BGP[r], es.FBS[r], es.IPS[r], es.Missing[r]
}

func (s serveASSource) IPSValidMonth(month int) bool {
	es := s.m.builder().AS(s.asn)
	return month < len(es.IPSValidMonth) && es.IPSValidMonth[month]
}

// invalidateFor drops the warm signals builder unless it can absorb the
// change: routedness edits at or past the fold cursor land when that round
// folds, while origin changes alter the AS grouping itself and always force
// a rebuild.
func (m *Monitor) invalidateFor(round int, originsChanged bool) {
	if !originsChanged && m.sigBuild != nil && round >= m.sigBuild.NextFold() {
		return
	}
	m.invalidate()
}

// buildSpace materializes a netmodel.Space from the learned origins.
func (m *Monitor) buildSpace() *netmodel.Space {
	byAS := make(map[ASN][]Prefix)
	for _, blk := range m.store.Blocks() {
		asn := m.origins[blk]
		if asn == 0 {
			continue
		}
		byAS[asn] = append(byAS[asn], Prefix{Base: blk.First(), Bits: 24})
	}
	var ases []*netmodel.AS
	for asn, ps := range byAS {
		ases = append(ases, &netmodel.AS{ASN: asn, Prefixes: ps})
	}
	// Origins come from our own map keyed by block, so overlaps are
	// impossible; a failure here is a programming error.
	return netmodel.MustBuildSpace(ases)
}

// minCoverage resolves the partial-round gate from the options.
func (m *Monitor) minCoverage() float64 {
	switch {
	case m.opts.MinCoverage > 0:
		return m.opts.MinCoverage
	case m.opts.MinCoverage < 0:
		return 0
	default:
		return signals.DefaultMinCoverage
	}
}

// builder returns the warm signals builder, building it (and its Space) over
// the store's current contents when there is none.
func (m *Monitor) builder() *signals.Builder {
	if m.sigBuild == nil {
		m.space = m.buildSpace()
		m.sigBuild = signals.NewStreamingBuilder(m.store, m.space, m.minCoverage())
		m.sigBuild.Observe(m.sigM)
	}
	return m.sigBuild
}

// DetectAS runs outage detection for one AS with the paper's AS-level
// thresholds.
func (m *Monitor) DetectAS(asn ASN) *Detection {
	d := signals.DetectObs(m.builder().AS(asn), signals.ASConfig(), m.sigM)
	if len(d.Outages) > 0 {
		m.emitDetection(asn.String(), d)
	}
	return d
}

// ASSeries exposes the raw per-round signals of an AS.
func (m *Monitor) ASSeries(asn ASN) *signals.EntitySeries { return m.builder().AS(asn) }

// ClassifyRegions runs the regional classification (§4, M = T_perc = 0.7)
// against monthly geolocation snapshots, enabling region-level detection.
// Call it after the campaign's observations (and routedness) are ingested.
func (m *Monitor) ClassifyRegions(db *geodb.DB) error {
	if db == nil || db.Months() == 0 {
		return errors.New("countrymon: geolocation database required")
	}
	m.builder() // materializes (and caches) the Space from learned origins
	cl := regional.NewClassifierCountry(m.space, db, m.store, m.Country())
	m.classifier = cl
	m.classification = cl.ClassifyAll(regional.DefaultParams())
	return nil
}

// DetectRegion runs regional outage detection with the paper's region-level
// thresholds. ClassifyRegions must have been called.
func (m *Monitor) DetectRegion(r Region) (*Detection, error) {
	if m.classification == nil {
		return nil, errors.New("countrymon: call ClassifyRegions first")
	}
	rr := m.classification.Regions[r]
	if rr == nil {
		return nil, fmt.Errorf("countrymon: no classification for %v", r)
	}
	es := m.builder().Region(rr, m.classifier)
	d := signals.DetectObs(es, signals.RegionConfig(), m.sigM)
	if len(d.Outages) > 0 {
		m.emitDetection(r.String(), d)
	}
	return d, nil
}

// RegionalASes returns the ASes classified regional for r (empty before
// ClassifyRegions).
func (m *Monitor) RegionalASes(r Region) []ASN {
	if m.classification == nil {
		return nil
	}
	rr := m.classification.Regions[r]
	if rr == nil {
		return nil
	}
	var out []ASN
	for asn, class := range rr.AS {
		if class == regional.ASRegional {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
