package scanner

import (
	"slices"
	"time"
)

// MergeRounds combines per-shard RoundData (shards of one round over the
// same target set) into a single round view, written into out, which the
// caller owns as RunInto's rd is owned: its Blocks are reused when their
// capacity fits, every field is overwritten, and a nil out is allocated.
// Shards probe disjoint address sets, so block masks OR together and
// counters add; everything is folded in slice order, making the result
// independent of how the shards were scheduled.
func MergeRounds(out *RoundData, targets *TargetSet, rds []*RoundData) *RoundData {
	if out == nil {
		out = new(RoundData)
	}
	n := targets.NumBlocks()
	*out = RoundData{Targets: targets, Blocks: slices.Grow(out.Blocks[:0], n)[:n]}
	for i, id := range targets.Blocks() {
		out.Blocks[i] = BlockResult{Block: id}
	}
	for _, rd := range rds {
		out.ShardTargets += rd.ShardTargets
		out.Probed += rd.Probed
		out.Partial = out.Partial || rd.Partial
		out.RecvDead = out.RecvDead || rd.RecvDead
		if out.Err == nil {
			out.Err = rd.Err
		}
		addStats(&out.Stats, &rd.Stats)
		for bi := range rd.Blocks {
			src := &rd.Blocks[bi]
			dst := &out.Blocks[bi]
			for w := range src.RespMask {
				dst.RespMask[w] |= src.RespMask[w]
			}
			dst.RespCount += src.RespCount
			dst.RTTSum += src.RTTSum
			dst.RTTCount += src.RTTCount
		}
	}
	return out
}

// addStats folds b into a: counters add, Elapsed is the slowest shard (the
// round's wall-clock is bounded by its slowest shard, not their sum).
func addStats(a, b *Stats) {
	a.Sent += b.Sent
	a.Received += b.Received
	a.Valid += b.Valid
	a.Duplicates += b.Duplicates
	a.Invalid += b.Invalid
	a.NonEcho += b.NonEcho
	a.SendErrors += b.SendErrors
	a.Retries += b.Retries
	a.RecvErrors += b.RecvErrors
	if b.Elapsed > a.Elapsed {
		a.Elapsed = time.Duration(b.Elapsed)
	}
}
