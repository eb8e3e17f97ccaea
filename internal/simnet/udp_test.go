package simnet

import (
	"bytes"
	"net"
	"testing"
	"time"

	"countrymon/internal/netmodel"
)

// TestUDPReadBatchDrainsQueued: datagrams already queued in the socket
// buffer come back from one ReadBatch call, in order, as many as there are
// slots; an empty socket times out with none; and ReadPacket's datagram is
// an exact-size copy, not a view of a 64 KiB buffer.
func TestUDPReadBatchDrainsQueued(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	tr, err := DialUDP(peer.LocalAddr().(*net.UDPAddr), netmodel.MustParseAddr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	to := tr.conn.LocalAddr().(*net.UDPAddr)
	datagram := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 20+i) }
	queue := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := peer.WriteToUDP(datagram(i), to); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(20 * time.Millisecond) // loopback delivers at once; this is slack
	}

	queue(0, 14)
	pkts, ats := make([][]byte, 16), make([]time.Time, 16)
	got := 0
	for _, room := range []int{10, 16} {
		k, err := tr.ReadBatch(pkts[:room], ats[:room], time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(room, 14-got); k != want {
			t.Fatalf("ReadBatch into %d slots returned %d datagrams, want %d", room, k, want)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(pkts[i], datagram(got+i)) {
				t.Fatalf("datagram %d: %x", got+i, pkts[i])
			}
		}
		got += k
	}
	if k, err := tr.ReadBatch(pkts, ats, 10*time.Millisecond); k != 0 || err != nil {
		t.Fatalf("ReadBatch on an empty socket = %d, %v", k, err)
	}

	queue(30, 31)
	pkt, _, err := tr.ReadPacket(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt, datagram(30)) || cap(pkt) > 64 {
		t.Errorf("ReadPacket = %d bytes of capacity %d, want the 50-byte datagram in its own buffer", len(pkt), cap(pkt))
	}
}
