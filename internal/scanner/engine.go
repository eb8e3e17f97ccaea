package scanner

import (
	"context"
	"errors"
	"sync"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
)

// The scan engine is one batched loop on one goroutine: it assembles probes
// into batches, paces each batch with one rate-limiter release, hands it to
// the transport's WriteBatch, drains whatever replies are already waiting
// through ReadBatch into reusable buffers, and collects stragglers in the
// cooldown. The buffers are one pooled scratch per RunContext. A round is
// rate-bound, not CPU-bound (the loop alone sustains several times
// DefaultRate over real sockets), so nothing overlaps sending with
// receiving, and a round on a virtual clock is fully deterministic.

// roundRun is the mutable state of one scan round, split into send-side and
// receive-side halves; finalize merges them into RoundData.
type roundRun struct {
	cfg     Config
	tr      BatchTransport
	targets *TargetSet
	cur     Cursor // this shard's walk of the targets' permutation
	val     Validator
	stamp   probeStamp // the part of a probe this round's probes share
	rl      RateLimiter
	rng     uint64 // deterministic jitter source for retry backoff
	maxFail int    // error budget in addresses
	sc      *scratch

	// Send-side state.
	send      Stats // Sent, SendErrors, Retries
	probed    int
	failed    int
	sendErr   error // last abandoned-probe error
	sendAbort bool  // error budget exhausted

	// pub tracks the send-side counters already published to the metrics
	// registry, so each batch adds only its delta (one atomic add per batch,
	// not per packet) while /metrics stays live mid-round.
	pub      Stats
	pubSlept time.Duration

	// The failed sends of the batch being written, which publishSend reports
	// in one retry event: the last one's error and the longest backoff slept.
	failErr   error
	failSlept time.Duration

	// Receive-side state.
	recv     Stats // Received, Valid, Duplicates, Invalid, NonEcho, RecvErrors
	blocks   []BlockResult
	recvDead bool
	recvErr  error

	// abort is the context cancellation that ended the round early.
	abort error
}

// run drives the round: replies are drained without waiting between batches
// and stragglers are collected in the cooldown.
func (r *roundRun) run(ctx context.Context) {
	r.sc = getScratch(r.cfg.Batch)
	defer scratchPool.Put(r.sc)
	r.sendBatches(ctx)
	if r.abort == nil {
		r.cooldown(ctx)
	}
}

// scratch is the buffer set of one round: the send buffers with the batch
// under assembly, and the receive ring ReadBatch refills. Send and receive
// buffers are capped sub-slices of one backing array each, so a buffer that
// outgrows its share reallocates instead of running into its neighbour.
// Rounds take it from and return it to scratchPool; every buffer is
// rewritten from [:0] before it is read, so nothing carries over.
type scratch struct {
	batch int

	bufs    [][]byte        // per-packet encode buffers
	pkts    [][]byte        // the batch handed to WriteBatch
	dsts    []netmodel.Addr // destination per packet
	pktAddr []int           // index into addrs per packet
	addrs   []addrSend

	recv [][]byte
	ats  []time.Time
}

// Buffer capacities: a probe is 36 bytes, and 512 covers any ICMP error
// quoting one with room to spare.
const (
	sendBufCap = 128
	recvBufCap = 512
)

var scratchPool sync.Pool

// getScratch returns a pooled scratch sized for batch, or builds one when the
// pool is empty or holds another size.
func getScratch(batch int) *scratch {
	if sc, _ := scratchPool.Get().(*scratch); sc != nil && sc.batch == batch {
		return sc
	}
	return &scratch{
		batch:   batch,
		bufs:    carve(batch, sendBufCap),
		pkts:    make([][]byte, 0, batch),
		dsts:    make([]netmodel.Addr, 0, batch),
		pktAddr: make([]int, 0, batch),
		addrs:   make([]addrSend, 0, batch),
		recv:    carve(batch, recvBufCap),
		ats:     make([]time.Time, batch),
	}
}

// carve returns n empty buffers of capacity size over one allocation.
func carve(n, size int) [][]byte {
	mem := make([]byte, n*size)
	out := make([][]byte, n)
	for i := range out {
		out[i] = mem[i*size : i*size : (i+1)*size]
	}
	return out
}

// addrSend tracks one address's in-flight probes within a batch.
type addrSend struct {
	left int  // probes not yet resolved
	ok   bool // at least one probe transmitted
}

// sendBatches walks the shard cursor, packing whole addresses into batches
// (all ProbesPerAddr probes of an address share a batch, so per-address
// outcomes — probed, failed, error budget — resolve as the batch is
// written). Between batches the replies already waiting are drained.
func (r *roundRun) sendBatches(ctx context.Context) {
	nb := r.cfg.Batch
	ppa := r.cfg.ProbesPerAddr
	bufs, pkts, dsts, pktAddr, addrs := r.sc.bufs, r.sc.pkts, r.sc.dsts, r.sc.pktAddr, r.sc.addrs
	r.stamp.init(&r.val, icmp.IPv4Header{TTL: probeTTL, Protocol: icmp.ProtoICMP, Src: r.tr.LocalAddr()})
	var seq uint64 // monotone probe counter, baked into the IPv4 ID field

	done := false
	for !done {
		if err := interrupted(ctx); err != nil {
			r.abort = err
			return
		}
		pkts, dsts, pktAddr, addrs = pkts[:0], dsts[:0], pktAddr[:0], addrs[:0]
		for len(pkts)+ppa <= nb {
			idx, ok := r.cur.Next()
			if !ok {
				done = true
				break
			}
			a := len(addrs)
			addrs = append(addrs, addrSend{left: ppa})
			dst := r.targets.Addr(idx)
			for p := 0; p < ppa; p++ {
				dsts = append(dsts, dst)
				pktAddr = append(pktAddr, a)
				pkts = append(pkts, nil)
			}
		}
		if len(pkts) == 0 {
			break
		}
		// Pay the whole batch's pacing debt up front, then stamp every
		// probe at the single post-wait instant: embedded timestamps match
		// the actual send time, so RTTs stay exact.
		r.rl.WaitN(len(pkts))
		r.stamp.sentAt(&r.val, r.cfg.Clock.Now())
		for i := range pkts {
			bufs[i] = r.stamp.appendProbe(bufs[i][:0], dsts[i], uint16(seq)+uint16(i))
			pkts[i] = bufs[i]
		}
		r.cfg.Metrics.BatchFill.Observe(float64(len(pkts)) / float64(nb))
		ok := r.writeBatch(ctx, pkts, dsts, pktAddr, addrs, seq)
		r.publishSend()
		if !ok {
			return
		}
		seq += uint64(len(pkts))
		r.drainPending()
	}
}

// publishSend adds the growth of the send-side counters since the last
// publish to the metrics registry, and reports a batch that had failed sends
// in one retry event: a storm of failures costs the event ring one slot per
// batch, not one per attempt, and a clean batch publishes and allocates
// nothing. Called once per batch, however writeBatch ended, so a scan's
// events sum to its Stats.Retries and Stats.SendErrors.
func (r *roundRun) publishSend() {
	m := r.cfg.Metrics
	retries, abandoned := r.send.Retries-r.pub.Retries, r.send.SendErrors-r.pub.SendErrors
	m.ProbesSent.Add(r.send.Sent - r.pub.Sent)
	m.SendErrors.Add(abandoned)
	m.Retries.Add(retries)
	r.pub.Sent, r.pub.SendErrors, r.pub.Retries = r.send.Sent, r.send.SendErrors, r.send.Retries
	if slept := r.rl.Slept(); slept > r.pubSlept {
		m.RateSleepNs.Add(uint64(slept - r.pubSlept))
		r.pubSlept = slept
	}
	if r.failErr == nil {
		return
	}
	r.cfg.Events.Emit("retry", func() map[string]any {
		return map[string]any{
			"shard": r.cfg.Shard, "retries": retries, "abandoned": abandoned,
			"backoff_ms": r.failSlept.Milliseconds(), "error": r.failErr.Error(),
		}
	})
	r.failErr, r.failSlept = nil, 0
}

// Constants of the send path: no caller ever chose other values.
const (
	probeTTL = 64 // outgoing TTL
	// sendRetries is the number of extra send attempts after a transient
	// transport error; retryBackoff is the delay before the first of them,
	// doubled per attempt with ±50% deterministic jitter.
	sendRetries  = 3
	retryBackoff = 2 * time.Millisecond
)

// writeBatch transmits one assembled batch with packet-at-a-time
// per-probe semantics: transient failures retry with exponential backoff
// and deterministic jitter (the unsent tail is re-stamped after the sleep
// so timestamps track the real send instant), probes that exhaust their
// retries or fail hard are abandoned and counted, and every address
// resolves as its last probe leaves the batch — including an error-budget
// abort mid-batch. Returns false when the round must stop sending.
func (r *roundRun) writeBatch(ctx context.Context, pkts [][]byte, dsts []netmodel.Addr, pktAddr []int, addrs []addrSend, base uint64) bool {
	overBudget := false
	finish := func(j int, sentOK bool) {
		st := &addrs[pktAddr[j]]
		st.left--
		if sentOK {
			r.send.Sent++
			st.ok = true
		}
		if st.left == 0 {
			if st.ok {
				r.probed++
			} else {
				r.failed++
				if r.failed > r.maxFail {
					overBudget = true
				}
			}
		}
	}

	i := 0
	attempt := 0
	backoff := retryBackoff
	for i < len(pkts) {
		n, err := r.tr.WriteBatch(pkts[i:])
		for j := i; j < i+n; j++ {
			finish(j, true)
		}
		i += n
		if overBudget {
			// Error budget exhausted: salvage the round as partial rather
			// than losing everything measured so far.
			r.sendAbort = true
			return false
		}
		if err == nil {
			if i < len(pkts) {
				// Contract violation: a short write must carry an error.
				err = errors.New("scanner: batch transport made no progress")
			} else {
				break
			}
		}
		if n > 0 {
			// The previously failing probe got through; the one now at the
			// head starts its own retry budget.
			attempt, backoff = 0, retryBackoff
		}
		r.failErr = err
		if attempt < sendRetries && IsTransient(err) {
			r.send.Retries++
			attempt++
			r.rng = netmodel.Mix64(r.rng)
			sleep := backoff/2 + time.Duration(r.rng%uint64(backoff))
			r.failSlept = max(r.failSlept, sleep)
			r.cfg.Clock.Sleep(sleep)
			if backoff < time.Second {
				backoff *= 2
			}
			if ierr := interrupted(ctx); ierr != nil {
				r.abort = ierr
				return false
			}
			r.stamp.sentAt(&r.val, r.cfg.Clock.Now())
			for j := i; j < len(pkts); j++ {
				pkts[j] = r.stamp.appendProbe(pkts[j][:0], dsts[j], uint16(base)+uint16(j))
			}
			continue
		}
		// Retry budget exhausted or hard error: abandon this probe.
		r.send.SendErrors++
		r.sendErr = err
		finish(i, false)
		i++
		if overBudget {
			r.sendAbort = true
			return false
		}
		attempt, backoff = 0, retryBackoff
	}
	return true
}

// drainOnce reads and processes one batch. It returns false when the caller
// should stop reading: nothing was due within the wait, or the receive path
// was declared dead.
func (r *roundRun) drainOnce(wait time.Duration) bool {
	if r.recvDead {
		return false
	}
	n, err := r.tr.ReadBatch(r.sc.recv, r.sc.ats, wait)
	for i := 0; i < n; i++ {
		r.processReply(r.sc.recv[i], r.sc.ats[i])
	}
	if err != nil {
		return r.recvFailure(err)
	}
	return n > 0
}

// drainPending drains all immediately available replies (no waiting).
func (r *roundRun) drainPending() {
	for r.drainOnce(0) {
	}
}

// cooldown collects stragglers until the cooldown window closes, the first
// idle timeout, cancellation, or receive-path death.
func (r *roundRun) cooldown(ctx context.Context) {
	deadline := r.cfg.Clock.Now().Add(r.cfg.Cooldown)
	for {
		if err := interrupted(ctx); err != nil {
			r.abort = err
			return
		}
		left := deadline.Sub(r.cfg.Clock.Now())
		if left <= 0 {
			return
		}
		if !r.drainOnce(left) {
			return
		}
	}
}

// recvFailure records a hard receive error, reporting false once the
// receive path must be declared dead: transient errors are tolerated up to
// MaxRecvErrors, non-transient ones kill the path immediately. Either way
// the error is counted, so a dead receive path is never misreported as 0
// responsive IPs.
func (r *roundRun) recvFailure(err error) bool {
	r.recv.RecvErrors++
	r.cfg.Metrics.RecvErrors.Inc()
	r.recvErr = err
	if !IsTransient(err) || r.recv.RecvErrors > uint64(r.cfg.MaxRecvErrors) {
		r.recvDead = true
		return false
	}
	return true
}

// processReply parses, validates and aggregates one inbound packet.
func (r *roundRun) processReply(pkt []byte, at time.Time) {
	mt := r.cfg.Metrics
	var h icmp.IPv4Header
	body, err := h.Parse(pkt)
	if err != nil || h.Protocol != icmp.ProtoICMP {
		r.recv.Invalid++
		mt.RepliesInvalid.Inc()
		return
	}
	var m icmp.Message
	if err := m.Parse(body); err != nil {
		r.recv.Invalid++
		mt.RepliesInvalid.Inc()
		return
	}
	if m.Type != icmp.TypeEchoReply {
		r.recv.NonEcho++
		mt.RepliesNonEcho.Inc()
		return
	}
	reply, ok := r.val.DecodeReply(h.Src, m, at)
	if !ok {
		r.recv.Invalid++
		mt.RepliesInvalid.Inc()
		return
	}
	bi := r.targets.BlockIndex(reply.From)
	if bi < 0 {
		r.recv.Invalid++
		mt.RepliesInvalid.Inc()
		return
	}
	r.recv.Received++
	br := &r.blocks[bi]
	host := reply.From.HostByte()
	if br.Responded(host) {
		r.recv.Duplicates++
		mt.RepliesDuplicate.Inc()
		return
	}
	br.RespMask[host/64] |= 1 << (host % 64)
	br.RespCount++
	br.RTTSum += reply.RTT
	br.RTTCount++
	r.recv.Valid++
	mt.RepliesValid.Inc()
}

// finalize merges the send- and receive-side halves into rd.
func (r *roundRun) finalize(rd *RoundData) {
	st := r.send
	st.Received = r.recv.Received
	st.Valid = r.recv.Valid
	st.Duplicates = r.recv.Duplicates
	st.Invalid = r.recv.Invalid
	st.NonEcho = r.recv.NonEcho
	st.RecvErrors = r.recv.RecvErrors
	rd.Stats = st
	rd.Probed = r.probed
	rd.RecvDead = r.recvDead
	if r.recvDead || r.sendAbort || r.abort != nil || r.probed < rd.ShardTargets {
		rd.Partial = true
	}
	rd.Err = r.sendErr
	if r.recvErr != nil {
		rd.Err = r.recvErr
	}
}
