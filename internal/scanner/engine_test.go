package scanner_test

import (
	"reflect"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

// hideBatch wraps a Transport so the engine sees a non-batch transport and
// must go through the AsBatch shim.
type hideBatch struct {
	tr scanner.Transport
}

func (h *hideBatch) WritePacket(b []byte) error { return h.tr.WritePacket(b) }
func (h *hideBatch) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	return h.tr.ReadPacket(wait)
}
func (h *hideBatch) LocalAddr() netmodel.Addr { return h.tr.LocalAddr() }

// scanResult is the engine-observable outcome of a round; every engine
// variant (any batch size, native or shimmed transport) must agree
// on all of it, Elapsed included (virtual time is deterministic).
type scanResult struct {
	Blocks []scanner.BlockResult
	Stats  scanner.Stats
	Probed int
}

func runEngine(t *testing.T, mutate func(*scanner.Config), hide bool) scanResult {
	t.Helper()
	ts := newTargets(t, "91.198.4.0/23")
	start := time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC)
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), respondEvens(40*time.Millisecond), start)
	var tr scanner.Transport = net
	if hide {
		tr = &hideBatch{tr: net}
	}
	cfg := scanner.Config{Rate: 100000, Seed: 42, Epoch: 7, Clock: net, Cooldown: time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	rd, err := scanner.New(tr, cfg).Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.Valid != 256 {
		t.Fatalf("Valid = %d, want 256", rd.Stats.Valid)
	}
	return scanResult{Blocks: rd.Blocks, Stats: rd.Stats, Probed: rd.Probed}
}

// TestBatchShimMatchesNative: a transport without batch methods (driven
// through the AsBatch shim) must behave exactly like the native batched
// implementation.
func TestBatchShimMatchesNative(t *testing.T) {
	native := runEngine(t, nil, false)
	shimmed := runEngine(t, nil, true)
	if !reflect.DeepEqual(native, shimmed) {
		t.Fatalf("shimmed result differs from native batch:\nnative: %+v\nshim:   %+v", native.Stats, shimmed.Stats)
	}
}

// TestBatchSizesEquivalent: the batch size is an I/O granularity knob, not a
// semantic one — every size (including the packet-at-a-time degenerate case)
// must produce the same round. Rate 0 keeps all probes stamped at one virtual
// instant, so even the ms-truncated RTT sums must agree exactly; under rate
// limiting, batch size shifts individual send instants (pacing in WaitN-sized
// releases), which is an intended pacing difference, not a result difference.
func TestBatchSizesEquivalent(t *testing.T) {
	ref := runEngine(t, func(c *scanner.Config) { c.Rate = -1; c.Batch = 1 }, false)
	for _, n := range []int{2, 7, 64, 256, 1024} {
		got := runEngine(t, func(c *scanner.Config) { c.Rate = -1; c.Batch = n }, false)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("batch=%d differs from batch=1", n)
		}
	}
}

func TestMergeRounds(t *testing.T) {
	ts := newTargets(t, "91.198.4.0/23")
	a := &scanner.RoundData{
		Targets:      ts,
		Blocks:       make([]scanner.BlockResult, ts.NumBlocks()),
		ShardTargets: 300,
		Probed:       300,
		Stats:        scanner.Stats{Sent: 300, Valid: 10, Elapsed: 5 * time.Second},
	}
	b := &scanner.RoundData{
		Targets:      ts,
		Blocks:       make([]scanner.BlockResult, ts.NumBlocks()),
		ShardTargets: 212,
		Probed:       200,
		Partial:      true,
		Stats:        scanner.Stats{Sent: 212, Valid: 4, SendErrors: 12, Elapsed: 7 * time.Second},
	}
	for i := range a.Blocks {
		a.Blocks[i].Block = ts.Blocks()[i]
		b.Blocks[i].Block = ts.Blocks()[i]
	}
	a.Blocks[0].RespMask[0] = 0x0f
	a.Blocks[0].RespCount = 4
	a.Blocks[0].RTTSum = 40 * time.Millisecond
	a.Blocks[0].RTTCount = 4
	b.Blocks[0].RespMask[0] = 0xf0
	b.Blocks[0].RespCount = 4
	b.Blocks[0].RTTSum = 60 * time.Millisecond
	b.Blocks[0].RTTCount = 4

	m := scanner.MergeRounds(nil, ts, []*scanner.RoundData{a, b})
	if m.ShardTargets != 512 || m.Probed != 500 || !m.Partial {
		t.Fatalf("merged scalars wrong: %+v", m)
	}
	if m.Stats.Sent != 512 || m.Stats.Valid != 14 || m.Stats.SendErrors != 12 {
		t.Fatalf("merged stats wrong: %+v", m.Stats)
	}
	if m.Stats.Elapsed != 7*time.Second {
		t.Fatalf("Elapsed should be the max shard, got %v", m.Stats.Elapsed)
	}
	blk := &m.Blocks[0]
	if blk.RespMask[0] != 0xff || blk.RespCount != 8 || blk.RTTCount != 8 || blk.RTTSum != 100*time.Millisecond {
		t.Fatalf("merged block wrong: %+v", blk)
	}
}

// TestShardUnionMatchesSerial: the union of a round's IterateShard shards,
// each scanned on its own and merged with MergeRounds, must reproduce the
// serial scan's blocks and aggregate counts.
func TestShardUnionMatchesSerial(t *testing.T) {
	ts := newTargets(t, "91.198.4.0/23")
	start := time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC)
	local := netmodel.MustParseAddr("198.51.100.1")

	net := simnet.New(local, respondEvens(40*time.Millisecond), start)
	serial, err := scanner.New(net, scanner.Config{
		Rate: 100000, Seed: 42, Epoch: 7, Clock: net, Cooldown: time.Second,
	}).Run(ts)
	if err != nil {
		t.Fatal(err)
	}

	const shards = 8
	rds := make([]*scanner.RoundData, shards)
	for i := range rds {
		n := simnet.New(local, respondEvens(40*time.Millisecond), start)
		rds[i], err = scanner.New(n, scanner.Config{
			Rate: 100000, Seed: 42, Epoch: 7, Clock: n, Cooldown: time.Second,
			Shard: i, Shards: shards,
		}).Run(ts)
		if err != nil {
			t.Fatal(err)
		}
	}
	merged := scanner.MergeRounds(nil, ts, rds)

	// Response sets are identical to the serial scan. (RTT sums are not
	// compared: per-shard pacing legitimately shifts send instants by
	// sub-millisecond offsets, which the ms-granular probe timestamps round
	// differently — the responding-host ground truth must still agree.)
	for i := range serial.Blocks {
		sb, mb := &serial.Blocks[i], &merged.Blocks[i]
		if sb.RespMask != mb.RespMask || sb.RespCount != mb.RespCount || sb.RTTCount != mb.RTTCount {
			t.Fatalf("block %v: merged responses differ from serial", sb.Block)
		}
	}
	if merged.ShardTargets != serial.ShardTargets || merged.Probed != serial.Probed {
		t.Fatalf("coverage: %d/%d merged vs %d/%d serial",
			merged.Probed, merged.ShardTargets, serial.Probed, serial.ShardTargets)
	}
	ms, ss := merged.Stats, serial.Stats
	if ms.Sent != ss.Sent || ms.Valid != ss.Valid || ms.Duplicates != ss.Duplicates ||
		ms.Invalid != ss.Invalid || ms.NonEcho != ss.NonEcho {
		t.Fatalf("merged stats %+v differ from serial %+v", ms, ss)
	}
	if merged.Partial {
		t.Fatal("merged round should not be partial")
	}
}
