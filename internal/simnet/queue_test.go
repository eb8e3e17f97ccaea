package simnet

import (
	"bytes"
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"

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
	var q replyQueue
	var ref refHeap
	for op := 0; op < 10000; op++ {
		// Two pushes for every pop on average.
		if rng.Intn(3) < 2 || q.len() == 0 {
			at := offsets[rng.Intn(len(offsets))]
			heap.Push(&ref, refEntry{at: at, seq: q.seq})
			q.push(nil, at)
			continue
		}
		got, want := q.pop(), heap.Pop(&ref).(refEntry)
		if got.seq != want.seq || got.at != want.at {
			t.Fatalf("op %d: popped (%d, seq %d), reference (%d, seq %d)", op, got.at, got.seq, want.at, want.seq)
		}
	}
	for q.len() > 0 {
		if got, want := q.pop(), heap.Pop(&ref).(refEntry); got.seq != want.seq {
			t.Fatalf("drain: popped seq %d, reference %d", got.seq, want.seq)
		}
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
	cycle() // warm-up round: the queue and its first slab are built here
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
	// An echo request too large for a slot takes the queue's oversize path.
	big := icmp.AppendMarshalIPv4(nil, icmp.IPv4Header{TTL: 64, Protocol: icmp.ProtoICMP, Src: src, Dst: netmodel.MustParseAddr("10.9.9.9")},
		icmp.Message{Type: icmp.TypeEchoRequest, ID: 7, Seq: 9, Payload: bytes.Repeat([]byte{0xab}, 200)})
	probes = append(probes, big)
	if _, err := n.WriteBatch(probes); err != nil {
		t.Fatal(err)
	}
	// Nil slots: ReadBatch must give each its own storage, never the slab's.
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
	// ...and new traffic through the freed slab slots must not reach any.
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
			t.Errorf("slot %d changed: aliases another slot or the slab", i)
		}
	}
}
