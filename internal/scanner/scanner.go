package scanner

import (
	"context"
	"errors"
	"slices"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/obs"
)

// ErrTimeout is returned by Transport.ReadPacket when no packet arrived
// within the wait budget.
var ErrTimeout = errors.New("scanner: read timeout")

// IsTransient reports whether a transport error is worth retrying: the
// error (or one it wraps) advertises itself via a `Transient() bool`
// method, as the fault-injection layer and flaky real transports do.
// Timeouts are not transient sends; they never reach the send path.
func IsTransient(err error) bool {
	// An unwrapped error is asked directly, which is also the first thing
	// errors.As would try: same verdict, and no escaping target per retry.
	if t, ok := err.(interface{ Transient() bool }); ok {
		return t.Transient()
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Transport carries raw IPv4 datagrams between the scanner and the network
// (simulated or real).
type Transport interface {
	// WritePacket transmits one IPv4 datagram. Implementations must not
	// retain b after returning (the scanner reuses the buffer).
	WritePacket(b []byte) error
	// ReadPacket returns the next inbound IPv4 datagram and its receive
	// time, waiting at most `wait` (0 = poll). It returns ErrTimeout when
	// nothing arrived in time.
	ReadPacket(wait time.Duration) (pkt []byte, at time.Time, err error)
	// LocalAddr is the vantage point's source address.
	LocalAddr() netmodel.Addr
}

// Rearmer is a Transport that can serve scan after scan: Rearm puts it back
// in the state it was built in, its clock at `at`, and reports whether it
// could. A fleet keeps a transport that re-arms for the next scan of its
// vantage, and builds one per scan otherwise.
type Rearmer interface {
	Rearm(at time.Time) bool
}

// Config controls one scan round.
type Config struct {
	Rate     int           // packets/second; 0 = DefaultRate (8000), negative = unlimited
	Burst    int           // token bucket burst; default 64
	Cooldown time.Duration // how long to wait for stragglers; default 8s
	Seed     uint64        // permutation + validation seed
	Epoch    uint32        // scan round identifier baked into probes
	// ProbesPerAddr retransmits each probe (ZMap's -P); duplicate replies
	// are deduplicated per host. The campaign used 1 (App. A).
	ProbesPerAddr int
	Clock         Clock // defaults to RealClock
	Shard         int   // this vantage's shard (default 0)
	Shards        int   // total shards (default 1)

	// ErrorBudget is the fraction of this shard's targets that may fail
	// to send (after retries) before the round is abandoned early and
	// returned partial instead of erroring out (default 0.10; ≥1 never
	// abandons). Failed addresses are skipped, not fatal.
	ErrorBudget float64
	// MaxRecvErrors is how many hard (non-timeout, transient) receive
	// errors are tolerated before the receive path is declared dead and
	// the round marked partial (default 32; negative = fail on the first
	// hard receive error). Non-transient receive errors kill the receive
	// path immediately.
	MaxRecvErrors int

	// Batch is how many packets are passed per WriteBatch/ReadBatch call
	// (default DefaultBatch; 1 degenerates to packet-at-a-time I/O). It is
	// raised to ProbesPerAddr when smaller, so all of an address's probes
	// share a batch and the address resolves as the batch is written.
	Batch int

	// Metrics, when built over a live registry (see NewMetrics), receives
	// the round's hot-path instrumentation: probes sent, batch fill, rate
	// sleep, reply validation results. Nil (or NewMetrics(nil)) disables it
	// at the cost of a nil check per instrumentation point.
	Metrics *Metrics
	// Events, when non-nil, receives the engine's structured events: one
	// "retry" per batch that had failed sends (shard, retries, abandoned,
	// backoff_ms, error). Nil publishes nothing.
	Events *obs.Bus
}

func (c Config) withDefaults() Config {
	if c.Rate == 0 {
		c.Rate = DefaultRate
	}
	if c.Burst == 0 {
		c.Burst = 64
	}
	if c.Cooldown == 0 {
		c.Cooldown = 8 * time.Second
	}
	if c.Clock == nil {
		c.Clock = RealClock{}
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.ProbesPerAddr == 0 {
		c.ProbesPerAddr = 1
	}
	if c.ErrorBudget == 0 {
		c.ErrorBudget = 0.10
	} else if c.ErrorBudget < 0 {
		c.ErrorBudget = 0
	}
	if c.MaxRecvErrors == 0 {
		c.MaxRecvErrors = 32
	} else if c.MaxRecvErrors < 0 {
		c.MaxRecvErrors = 0
	}
	if c.Batch <= 0 {
		c.Batch = DefaultBatch
	}
	if c.Batch < c.ProbesPerAddr {
		c.Batch = c.ProbesPerAddr
	}
	if c.Metrics == nil {
		c.Metrics = &inertMetrics
	}
	return c
}

// inertMetrics stands in for a nil Config.Metrics: its instruments are all
// nil, so nothing is ever written through it and every scan can share it.
var inertMetrics Metrics

// Stats summarizes one scan round.
type Stats struct {
	Sent       uint64
	Received   uint64 // validated echo replies (incl. duplicates)
	Valid      uint64 // unique validated echo replies
	Duplicates uint64
	Invalid    uint64 // failed validation (wrong id/seq/epoch, malformed)
	NonEcho    uint64 // ICMP errors (unreachable, time exceeded, ...)
	// SendErrors counts probes abandoned after the retry budget; Retries
	// counts individual re-send attempts; RecvErrors counts hard
	// (non-timeout) receive failures.
	SendErrors uint64
	Retries    uint64
	RecvErrors uint64
	Elapsed    time.Duration
}

// Add folds b into s: counters add and Elapsed accumulates, so a campaign
// total is the sum of its rounds. (Shard merging within one round instead
// takes the max Elapsed; see MergeRounds.)
func (s *Stats) Add(b Stats) {
	s.Sent += b.Sent
	s.Received += b.Received
	s.Valid += b.Valid
	s.Duplicates += b.Duplicates
	s.Invalid += b.Invalid
	s.NonEcho += b.NonEcho
	s.SendErrors += b.SendErrors
	s.Retries += b.Retries
	s.RecvErrors += b.RecvErrors
	s.Elapsed += b.Elapsed
}

// BlockResult accumulates one /24 block's responses in a round.
type BlockResult struct {
	Block     netmodel.BlockID
	RespMask  [4]uint64 // bit per host that replied
	RespCount uint16
	RTTSum    time.Duration
	RTTCount  uint32
}

// Responded reports whether host h replied.
func (b *BlockResult) Responded(h uint8) bool {
	return b.RespMask[h/64]>>(h%64)&1 == 1
}

// MeanRTT returns the block's mean round-trip time (0 if no replies).
func (b *BlockResult) MeanRTT() time.Duration {
	if b.RTTCount == 0 {
		return 0
	}
	return b.RTTSum / time.Duration(b.RTTCount)
}

// RoundData is the outcome of scanning a target set once.
type RoundData struct {
	Targets *TargetSet
	Blocks  []BlockResult // aligned with Targets.Blocks()

	// ShardTargets is how many addresses this shard was due to probe;
	// Probed is how many actually had at least one probe transmitted.
	ShardTargets int
	Probed       int
	// Partial marks a salvaged round: the error budget ran out, the
	// receive path died, or the round was cancelled, so part of the target
	// set was never probed. Callers should gate such rounds on Coverage
	// rather than treat them as full observations.
	Partial bool
	// RecvDead marks rounds whose receive path failed hard: reply counts
	// are unreliable even for probed addresses.
	RecvDead bool
	// Err records the last hard transport error observed (the round is
	// still returned; salvage what was measured).
	Err error

	Stats Stats
}

// Coverage returns the fraction of this shard's targets that were probed.
func (rd *RoundData) Coverage() float64 {
	if rd.ShardTargets == 0 {
		return 0
	}
	return float64(rd.Probed) / float64(rd.ShardTargets)
}

// Scanner performs full-block ICMP scans over a transport.
type Scanner struct {
	cfg Config
	tr  Transport
}

// New builds a scanner.
func New(tr Transport, cfg Config) *Scanner {
	return &Scanner{cfg: cfg.withDefaults(), tr: tr}
}

// interrupted reports why the round should abort, or nil.
func interrupted(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Run scans the target set once: every address is probed exactly once in
// permuted order, replies are validated and aggregated per /24 block.
func (s *Scanner) Run(targets *TargetSet) (*RoundData, error) {
	return s.RunContext(context.Background(), targets)
}

// RunContext is Run with cancellation: the round aborts at the next probe
// or read boundary when ctx is done, returning the partial results gathered
// so far alongside the context error. Transient send errors are retried
// with exponential backoff; addresses that still fail are skipped and
// counted, and once more than ErrorBudget of the shard's targets have
// failed the rest of the round is abandoned and the result marked Partial —
// a degraded round is data, not an error.
func (s *Scanner) RunContext(ctx context.Context, targets *TargetSet) (*RoundData, error) {
	return s.RunInto(ctx, targets, nil)
}

// RunInto is RunContext writing the round into rd, which the caller owns
// and may hand to the next round: rd's Blocks are reused when their capacity
// holds the target set's blocks, and every field of rd is overwritten, so
// nothing of an earlier round survives. A nil rd is allocated. It returns
// rd, or nil (leaving rd untouched) when the round could not start.
func (s *Scanner) RunInto(ctx context.Context, targets *TargetSet, rd *RoundData) (*RoundData, error) {
	cfg := s.cfg
	pm, err := targets.permutation(cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &roundRun{
		cfg:     cfg,
		tr:      AsBatch(s.tr),
		targets: targets,
		rng:     netmodel.Mix64(cfg.Seed ^ uint64(cfg.Epoch)<<32 ^ 0xfa17),
	}
	if err := r.cur.reset(pm, cfg.Shard, cfg.Shards); err != nil {
		return nil, err
	}

	start := cfg.Clock.Now()
	if rd == nil {
		rd = new(RoundData)
	}
	n := targets.NumBlocks()
	*rd = RoundData{
		Targets:      targets,
		Blocks:       slices.Grow(rd.Blocks[:0], n)[:n],
		ShardTargets: ShardLen(targets.Len(), cfg.Shard, cfg.Shards),
	}
	for i, id := range targets.Blocks() {
		rd.Blocks[i] = BlockResult{Block: id}
	}

	r.val = *NewValidator(cfg.Seed^0xc0ffee, cfg.Epoch, start)
	r.rl.reset(cfg.Clock, cfg.Rate, cfg.Burst)
	r.maxFail = int(cfg.ErrorBudget * float64(rd.ShardTargets))
	r.blocks = rd.Blocks
	r.run(ctx)
	r.finalize(rd)
	rd.Stats.Elapsed = cfg.Clock.Now().Sub(start)
	return rd, r.abort
}

// ShardLen is how many of the n permuted indices shard receives: every
// shards-th emitted element starting at offset shard. Fleet supervisors use
// it to account for the coverage hole an unscanned shard leaves behind.
func ShardLen(n uint64, shard, shards int) int {
	if uint64(shard) >= n {
		return 0
	}
	return int((n - uint64(shard) + uint64(shards) - 1) / uint64(shards))
}
