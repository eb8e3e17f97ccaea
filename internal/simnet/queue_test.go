package simnet

import (
	"bytes"
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
)

// refHeap is a container/heap queue ordered on (delivery offset, push order)
// by its own comparison: the reference the calendar queue's pop order is
// checked against.
type refEntry struct {
	at  int64
	seq uint64
}
type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// queueOffsets are delivery offsets from the last delivered reply's time at
// every edge of the calendar — a bucket, a lap and two laps, each ± 1 ns —
// beside an hour, negative ones (a reply "due" before the clock) and the
// ends of the int64 range, which stand for themselves.
var queueOffsets = []int64{
	0, 1, -1, bucketWidth - 1, bucketWidth, bucketWidth + 1,
	lapWidth - 1, lapWidth, lapWidth + 1, 2 * lapWidth, 2*lapWidth + 1, int64(time.Hour),
	-bucketWidth, -lapWidth - 1, -3e6, math.MinInt64, math.MaxInt64,
}

// queueCheck drives a replyQueue whose replies are their push order beside
// the reference heap, and compares every pop.
type queueCheck struct {
	t    *testing.T
	q    replyQueue[uint64]
	ref  refHeap
	seq  uint64
	base int64 // the last delivered reply's time, as a wire's clock would read
}

// push enqueues a reply due off past base, saturating; the ends of the
// int64 range are taken as they are.
func (c *queueCheck) push(off int64) {
	at := c.base + off
	switch {
	case off == math.MinInt64 || off == math.MaxInt64:
		at = off
	case off > 0 && at < c.base:
		at = math.MaxInt64
	case off < 0 && at > c.base:
		at = math.MinInt64
	}
	heap.Push(&c.ref, refEntry{at: at, seq: c.seq})
	c.q.push(c.seq, at)
	c.seq++
}

// pop checks the pop of script step op, or of the final drain when op < 0.
func (c *queueCheck) pop(op int) {
	c.t.Helper()
	got := c.q.slab[c.q.top()]
	want := heap.Pop(&c.ref).(refEntry)
	c.q.pop()
	if got.r != want.seq || got.at != want.at {
		c.t.Fatalf("op %d: popped (%d, push %d), reference (%d, push %d)", op, got.at, got.r, want.at, want.seq)
	}
	if c.q.len() != c.ref.Len() {
		c.t.Fatalf("op %d: len %d, reference %d", op, c.q.len(), c.ref.Len())
	}
	if got.at != math.MinInt64 && got.at != math.MaxInt64 {
		c.base = got.at
	}
}

func (c *queueCheck) drain() {
	c.t.Helper()
	for c.q.len() > 0 {
		c.pop(-1)
	}
	if c.ref.Len() != 0 {
		c.t.Fatalf("reference still holds %d replies", c.ref.Len())
	}
}

// TestReplyQueueMatchesContainerHeap: the calendar queue pops what a
// container/heap ordered on (delivery time, push order) pops, through
// phases that fill it past a slab doubling and drain it to empty, with
// offsets at every calendar edge (equal delivery times among them) and
// offsets spread over three laps, which land out of order in a bucket.
func TestReplyQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := &queueCheck{t: t}
	pushShare := []int{1, 2, 3, 5, 9} // pushes per pop, a phase of 2 000 ops each
	for op := 0; op < 200000; op++ {
		if op%20000 == 19999 {
			c.drain()
			continue
		}
		share := pushShare[op/2000%len(pushShare)]
		if c.q.len() == 0 || rng.Intn(share+1) < share {
			off := rng.Int63n(3 * lapWidth)
			if rng.Intn(2) == 0 {
				off = queueOffsets[rng.Intn(len(queueOffsets))]
			}
			c.push(off)
			continue
		}
		c.pop(op)
	}
	c.drain()
	if len(c.q.slab) <= 64 {
		t.Errorf("the queue never grew past its first slab (%d slots)", len(c.q.slab))
	}
}

// FuzzReplyQueueMatchesHeap lets the fuzzer write the op script: a byte c
// pops when c%4 == 0 and the queue is not empty, and otherwise pushes at
// queueOffsets[c/4] past the last delivery, or for c/4 past the table at a
// third of a bucket per step beyond it.
func FuzzReplyQueueMatchesHeap(f *testing.F) {
	push := func(k int) byte { return byte(4*k + 1) }
	f.Add([]byte{push(0), push(0), push(1), push(2), push(0), 0, 0, 0, 0, 0})             // equal times, ± 1 ns
	f.Add([]byte{push(8), push(6), push(7), 0, push(9), push(3), push(5), 0, 0, 0, 0, 0}) // the lap's edges
	f.Add([]byte{push(11), push(16), push(15), 0, push(13), push(12), 0, 0, 0, 0})        // an hour, the ends, behind cur
	f.Add([]byte{push(63), push(40), push(20), 0, push(50), push(18), 0, 0, 0, 0})        // spread over laps
	f.Fuzz(func(t *testing.T, script []byte) {
		c := &queueCheck{t: t}
		for i, b := range script {
			if b%4 == 0 && c.q.len() > 0 {
				c.pop(i)
				continue
			}
			k := int(b / 4)
			off := int64(k-len(queueOffsets)) * bucketWidth / 3
			if k < len(queueOffsets) {
				off = queueOffsets[k]
			}
			c.push(off)
		}
		c.drain()
	})
}

// probeBatch is n encoded echo requests to n distinct hosts.
func probeBatch(n int, src netmodel.Addr) [][]byte {
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = probeFor(netmodel.MustParseAddr("10.1.0.0")+netmodel.Addr(i), src)
	}
	return pkts
}

func TestBatchCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("append allocates under -race")
	}
	src := netmodel.MustParseAddr("198.51.100.1")
	n := New(src, echoAll(10*time.Millisecond), time.Unix(0, 0))
	probes := probeBatch(64, src)
	slots := make([][]byte, 64)
	for i := range slots {
		slots[i] = make([]byte, 0, 128)
	}
	ats := make([]time.Time, 64)
	cycle := func() {
		if sent, err := n.WriteBatch(probes); sent != len(probes) || err != nil {
			t.Fatalf("WriteBatch = %d, %v", sent, err)
		}
		got := 0
		for {
			k, err := n.ReadBatch(slots, ats, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				break
			}
			got += k
		}
		if got != len(probes) {
			t.Fatalf("drained %d replies, want %d", got, len(probes))
		}
	}
	cycle() // warm-up round: the queue's slab is built here
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("WriteBatch + ReadBatch cycle of 64 probes: %.1f allocs, want 0", allocs)
	}
}

func TestReadPacketBytesAreCallersOwn(t *testing.T) {
	src := netmodel.MustParseAddr("198.51.100.1")
	n := New(src, echoAll(time.Millisecond), time.Unix(0, 0))
	if err := n.WritePacket(probeFor(netmodel.MustParseAddr("10.0.0.1"), src)); err != nil {
		t.Fatal(err)
	}
	pkt, _, err := n.ReadPacket(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), pkt...)
	// The slot the reply sat in is reused by every one of these.
	for i := 0; i < 1000; i++ {
		if err := n.WritePacket(probeFor(netmodel.MustParseAddr("10.2.0.0")+netmodel.Addr(i), src)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := n.ReadPacket(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(pkt, want) {
		t.Errorf("bytes returned by ReadPacket changed under later traffic:\n got %x\nwant %x", pkt, want)
	}
}

func TestReadBatchSlotsDoNotAlias(t *testing.T) {
	src := netmodel.MustParseAddr("198.51.100.1")
	n := New(src, echoAll(time.Millisecond), time.Unix(0, 0))
	probes := probeBatch(32, src)
	// An echo request too large for a record is kept whole beside the queue.
	big := icmp.AppendMarshalIPv4(nil, icmp.IPv4Header{TTL: 64, Protocol: icmp.ProtoICMP, Src: src, Dst: netmodel.MustParseAddr("10.9.9.9")},
		icmp.Message{Type: icmp.TypeEchoRequest, ID: 7, Seq: 9, Payload: bytes.Repeat([]byte{0xab}, 200)})
	probes = append(probes, big)
	if _, err := n.WriteBatch(probes); err != nil {
		t.Fatal(err)
	}
	// Nil slots: ReadBatch must give each its own storage, never the wire's.
	slots := make([][]byte, len(probes))
	ats := make([]time.Time, len(probes))
	if k, err := n.ReadBatch(slots, ats, time.Second); k != len(probes) || err != nil {
		t.Fatalf("ReadBatch = %d, %v", k, err)
	}
	want := make([][]byte, len(slots))
	for i, s := range slots {
		want[i] = append([]byte(nil), s...)
		h, body, err := icmp.ParseIPv4(s)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if m, err := icmp.Parse(body); err != nil || m.Type != icmp.TypeEchoReply {
			t.Fatalf("slot %d: not an echo reply: %v %v", i, m.Type, err)
		}
		wantSrc, _, _ := icmp.ParseIPv4(probes[i])
		if h.Src != wantSrc.Dst {
			t.Fatalf("slot %d: reply from %v, want %v", i, h.Src, wantSrc.Dst)
		}
	}
	if len(slots[len(slots)-1]) != len(big) {
		t.Errorf("oversize reply is %d bytes, want %d", len(slots[len(slots)-1]), len(big))
	}
	// Scribbling over one slot must not reach another...
	for i := range slots {
		for j := range slots[i] {
			slots[i][j] = byte(i)
		}
		want[i] = append(want[i][:0], slots[i]...)
	}
	// ...and new traffic through the same queue slots must not reach any.
	for round := 0; round < 4; round++ {
		if _, err := n.WriteBatch(probes); err != nil {
			t.Fatal(err)
		}
		scratch := make([][]byte, len(probes))
		if k, err := n.ReadBatch(scratch, make([]time.Time, len(probes)), time.Second); k != len(probes) || err != nil {
			t.Fatalf("ReadBatch = %d, %v", k, err)
		}
	}
	for i := range slots {
		if !bytes.Equal(slots[i], want[i]) {
			t.Errorf("slot %d changed: aliases another slot or the wire", i)
		}
	}
}

// TestStalledWireBytes: a scan whose replies are never read — a stalled or
// blacked-out vantage — costs its wire a record per reply, in a slab that
// doubles, and nothing per datagram.
func TestStalledWireBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	const probes = 4096
	src := netmodel.MustParseAddr("198.51.100.1")
	batch := probeBatch(probes, src)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := New(src, echoAll(time.Hour), time.Unix(0, 0))
	if sent, err := n.WriteBatch(batch); sent != probes || err != nil {
		t.Fatalf("WriteBatch = %d, %v", sent, err)
	}
	runtime.ReadMemStats(&after)
	if n.Pending() != probes {
		t.Fatalf("Pending = %d", n.Pending())
	}
	const slack = 16 << 10
	size := uint64(unsafe.Sizeof(pendingReply[record]{}))
	if got, limit := after.TotalAlloc-before.TotalAlloc, 2*probes*size+slack; got > limit {
		t.Errorf("%d replies in flight allocated %d bytes, want at most %d (2 × %d-byte entries + %d)", probes, got, limit, size, slack)
	}
}

// TestSmallWireAllocs: a scan that never has 64 replies in flight — nearly
// every per-scan wire of a fleet round — costs the Network and one slab.
func TestSmallWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("append allocates under -race")
	}
	src := netmodel.MustParseAddr("198.51.100.1")
	probes := probeBatch(63, src)
	slots := make([][]byte, 16)
	for i := range slots {
		slots[i] = make([]byte, 0, 128)
	}
	ats := make([]time.Time, len(slots))
	resp := echoAll(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(50, func() {
		n := New(src, resp, time.Unix(0, 0))
		if sent, err := n.WriteBatch(probes); sent != len(probes) || err != nil {
			t.Fatalf("WriteBatch = %d, %v", sent, err)
		}
		for got := 0; got < len(probes); {
			k, err := n.ReadBatch(slots, ats, time.Second)
			if k == 0 || err != nil {
				t.Fatalf("ReadBatch = %d, %v after %d replies", k, err, got)
			}
			got += k
		}
	})
	if allocs > 2 {
		t.Errorf("a fresh wire with %d replies in flight: %.1f allocs, want at most 2", len(probes), allocs)
	}
}
