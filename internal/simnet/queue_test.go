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

// refHeap is the container/heap queue replyQueue replaced, ordered on
// (delivery offset, push order) by its own comparison, kept as the reference
// the queue's pop order is checked against.
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

func TestReplyQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Only a handful of distinct delivery offsets, so most comparisons fall
	// through to push order; negative ones (a reply "due" before the wire
	// started) and the ends of the range order like any other.
	offsets := []int64{-3e6, -1, 0, 1, 2e6, 5e6, 5e6 + 1, 7e6, math.MinInt64, math.MaxInt64}
	var q replyQueue[struct{}]
	var ref refHeap
	for op := 0; op < 10000; op++ {
		// Two pushes for every pop on average.
		if rng.Intn(3) < 2 || q.len() == 0 {
			at := offsets[rng.Intn(len(offsets))]
			heap.Push(&ref, refEntry{at: at, seq: q.seq})
			q.push(struct{}{}, at)
			continue
		}
		got, want := q.heap[0], heap.Pop(&ref).(refEntry)
		q.pop()
		if got.seq != want.seq || got.at != want.at {
			t.Fatalf("op %d: popped (%d, seq %d), reference (%d, seq %d)", op, got.at, got.seq, want.at, want.seq)
		}
	}
	for q.len() > 0 {
		if got, want := q.heap[0], heap.Pop(&ref).(refEntry); got.seq != want.seq {
			t.Fatalf("drain: popped seq %d, reference %d", got.seq, want.seq)
		}
		q.pop()
	}
	if ref.Len() != 0 {
		t.Fatalf("reference still holds %d replies", ref.Len())
	}
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
	cycle() // warm-up round: the queue's heap is built here
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
	// ...and new traffic through the same heap entries must not reach any.
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
// blacked-out vantage — costs its wire a record per reply, in a heap that
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
// every per-scan wire of a fleet round — costs the Network and one heap.
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
