package bgp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"countrymon/internal/netmodel"
)

func sampleRIB() *RIB {
	rib := NewRIB()
	rib.Announce(Route{
		Prefix: netmodel.MustParsePrefix("193.151.240.0/23"),
		Path:   []netmodel.ASN{64512, 25482}, NextHop: netmodel.MustParseAddr("192.0.2.1"),
		Origin: OriginIGP,
	})
	rib.Announce(Route{
		Prefix: netmodel.MustParsePrefix("176.8.0.0/19"),
		Path:   []netmodel.ASN{64512, 20485, 15895}, NextHop: netmodel.MustParseAddr("192.0.2.1"),
		Origin: OriginIGP,
	})
	rib.Announce(Route{
		Prefix: netmodel.MustParsePrefix("91.198.4.0/24"),
		Path:   []netmodel.ASN{64512, 211171}, NextHop: netmodel.MustParseAddr("192.0.2.1"),
		Origin: OriginIncomplete,
	})
	return rib
}

func TestMRTRoundTrip(t *testing.T) {
	rib := sampleRIB()
	ts := time.Date(2022, 5, 1, 12, 0, 0, 0, time.UTC)
	peer := MRTPeer{BGPID: netmodel.MustParseAddr("192.0.2.1"), Addr: netmodel.MustParseAddr("192.0.2.1"), ASN: 64512}
	var buf bytes.Buffer
	if err := rib.WriteMRT(&buf, ts, netmodel.MustParseAddr("192.0.2.100"), peer, "countrymon"); err != nil {
		t.Fatal(err)
	}

	dump, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !dump.Timestamp.Equal(ts) {
		t.Errorf("timestamp = %v", dump.Timestamp)
	}
	if dump.ViewName != "countrymon" {
		t.Errorf("view = %q", dump.ViewName)
	}
	if len(dump.Peers) != 1 || dump.Peers[0].ASN != 64512 {
		t.Errorf("peers = %+v", dump.Peers)
	}
	if len(dump.Routes) != rib.Len() {
		t.Fatalf("routes = %d, want %d", len(dump.Routes), rib.Len())
	}

	back := dump.RIB()
	for _, rt := range rib.Routes() {
		got, ok := back.Lookup(rt.Prefix)
		if !ok {
			t.Fatalf("route %v lost", rt.Prefix)
		}
		if !reflect.DeepEqual(got, rt) {
			t.Errorf("route %v mismatch: %+v vs %+v", rt.Prefix, got, rt)
		}
	}
	// Snapshot semantics survive the dump.
	snap := back.Snapshot(map[netmodel.ASN]bool{20485: true})
	if snap.RoutedBlocks(15895) != 32 {
		t.Errorf("AS15895 blocks = %d", snap.RoutedBlocks(15895))
	}
	if !snap.Rerouted[netmodel.MustParseBlock("176.8.1.0/24")] {
		t.Error("rerouting flag lost through MRT")
	}
}

func TestMRTLargeASNs(t *testing.T) {
	// TABLE_DUMP_V2 carries 4-octet ASNs; 211171 and 215654 must survive.
	rib := NewRIB()
	rib.Announce(Route{
		Prefix: netmodel.MustParsePrefix("10.0.0.0/24"),
		Path:   []netmodel.ASN{215654, 211171}, NextHop: 1, Origin: OriginIGP,
	})
	var buf bytes.Buffer
	peer := MRTPeer{ASN: 215654}
	if err := rib.WriteMRT(&buf, time.Unix(0, 0), 0, peer, "v"); err != nil {
		t.Fatal(err)
	}
	dump, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Peers[0].ASN != 215654 {
		t.Errorf("peer ASN = %v", dump.Peers[0].ASN)
	}
	if got := dump.Routes[0].OriginASN(); got != 211171 {
		t.Errorf("origin = %v", got)
	}
}

func TestMRTEmptyRIB(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRIB().WriteMRT(&buf, time.Unix(0, 0), 0, MRTPeer{}, ""); err != nil {
		t.Fatal(err)
	}
	dump, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Routes) != 0 || len(dump.Peers) != 1 {
		t.Errorf("dump = %+v", dump)
	}
}

func TestReadMRTRejectsGarbage(t *testing.T) {
	if _, err := ReadMRT(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("truncated header accepted")
	}
	// Valid header, truncated body.
	b := make([]byte, 12)
	b[5] = 13
	b[7] = 1
	b[11] = 50 // claims 50 bytes of body, none present
	if _, err := ReadMRT(bytes.NewReader(b)); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestReadMRTSkipsForeignTypes(t *testing.T) {
	// A record of another MRT type must be skipped, then parsing resumes.
	var buf bytes.Buffer
	hdr := make([]byte, 12)
	hdr[5] = 16 // BGP4MP
	hdr[11] = 2
	buf.Write(hdr)
	buf.Write([]byte{0xaa, 0xbb})
	rib := sampleRIB()
	if err := rib.WriteMRT(&buf, time.Unix(100, 0), 0, MRTPeer{ASN: 1}, "v"); err != nil {
		t.Fatal(err)
	}
	dump, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Routes) != rib.Len() {
		t.Errorf("routes = %d", len(dump.Routes))
	}
}

// hops is an AS path of n distinct private ASNs.
func hops(n int) []netmodel.ASN {
	path := make([]netmodel.ASN, n)
	for i := range path {
		path[i] = netmodel.ASN(64512 + i)
	}
	return path
}

// mrtRecord frames body as a TABLE_DUMP_V2 record of the given subtype.
func mrtRecord(subtype uint16, body []byte) []byte {
	b := make([]byte, mrtHeaderLen, mrtHeaderLen+len(body))
	binary.BigEndian.PutUint16(b[4:], mrtTypeTableDumpV2)
	binary.BigEndian.PutUint16(b[6:], subtype)
	binary.BigEndian.PutUint32(b[8:], uint32(len(body)))
	return append(b, body...)
}

// handDump is a dump built byte by byte: a one-peer index table, then one
// RIB entry for 10.0.0.0/23 from peer 0 carrying the raw path attributes.
func handDump(attrs []byte) []byte {
	index := []byte{
		192, 0, 2, 100, // collector BGP ID
		0, 0, // view name: empty
		0, 1, // one peer
		0x02, 192, 0, 2, 1, 192, 0, 2, 1, 0, 0, 0xfc, 0x00, // IPv4, AS4 64512
	}
	entry := []byte{
		0, 0, 0, 0, // sequence number
		23, 10, 0, 0, // 10.0.0.0/23
		0, 1, // one entry
		0, 0, // peer index
		0, 0, 0, 0, // originated time
		0, byte(len(attrs)),
	}
	return append(mrtRecord(mrtSubtypePeerIndexTable, index),
		mrtRecord(mrtSubtypeRIBIPv4Unicast, append(entry, attrs...))...)
}

// A RIB entry records an announcement, so it must carry AS_PATH and NEXT_HOP
// as an UPDATE with NLRI must (RFC 4271 §5): the reader refuses an entry
// without them rather than count its blocks as routed under AS0.
func TestUpdateMissingMandatoryAttrs(t *testing.T) {
	origin := []byte{0x40, attrOrigin, 1, OriginIGP}
	asPath := []byte{0x40, attrASPath, 6, asSequence, 1, 0, 0, 0xfc, 0x00} // AS64512
	emptyPath := []byte{0x40, attrASPath, 0}
	nextHop := []byte{0x40, attrNextHop, 4, 192, 0, 2, 1}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	dump, err := ReadMRT(bytes.NewReader(handDump(cat(origin, asPath, nextHop))))
	if err != nil {
		t.Fatalf("complete entry refused: %v", err)
	}
	want := Route{
		Prefix: netmodel.MustParsePrefix("10.0.0.0/23"),
		Path:   []netmodel.ASN{64512}, NextHop: netmodel.MustParseAddr("192.0.2.1"), Origin: OriginIGP,
	}
	if len(dump.Routes) != 1 || !reflect.DeepEqual(dump.Routes[0], want) {
		t.Fatalf("complete entry read as %+v", dump.Routes)
	}

	for name, attrs := range map[string][]byte{
		"no attributes":    nil,
		"no AS_PATH":       cat(origin, nextHop),
		"empty AS_PATH":    cat(origin, emptyPath, nextHop),
		"no NEXT_HOP":      cat(origin, asPath),
		"NEXT_HOP 0.0.0.0": cat(origin, asPath, []byte{0x40, attrNextHop, 4, 0, 0, 0, 0}),
	} {
		if dump, err := ReadMRT(bytes.NewReader(handDump(attrs))); !errors.Is(err, ErrMRTFormat) {
			t.Errorf("%s: err = %v, dump %+v; want ErrMRTFormat", name, err, dump)
		}
	}
}

func TestWriteMRTRefusesIncompleteRoute(t *testing.T) {
	p := netmodel.MustParsePrefix("10.0.0.0/23")
	for name, rt := range map[string]Route{
		"no path, no next hop": {Prefix: p},
		"no path":              {Prefix: p, NextHop: 1},
		"no next hop":          {Prefix: p, Path: []netmodel.ASN{64512}},
	} {
		rib := sampleRIB()
		rib.Announce(rt)
		if err := rib.WriteMRT(io.Discard, time.Unix(0, 0), 0, MRTPeer{ASN: 64512}, "v"); !errors.Is(err, ErrMRTFormat) {
			t.Errorf("%s: err = %v, want ErrMRTFormat", name, err)
		}
	}
}

// FuzzReadMRT holds the one parser of outside bytes to two properties: no
// input panics it, and any dump it accepts is a fixed point, its RIB written
// back and read again yielding the same routes.
func FuzzReadMRT(f *testing.F) {
	large, long := NewRIB(), NewRIB()
	large.Announce(Route{
		Prefix: netmodel.MustParsePrefix("10.0.0.0/24"),
		Path:   []netmodel.ASN{215654, 211171}, NextHop: 1, Origin: OriginIGP,
	})
	long.Announce(Route{Prefix: netmodel.MustParsePrefix("10.1.0.0/16"), Path: hops(100), NextHop: 1})
	for _, rib := range []*RIB{sampleRIB(), large, long} {
		var buf bytes.Buffer
		if err := rib.WriteMRT(&buf, time.Unix(1651406400, 0), 0, MRTPeer{ASN: 64512}, "v"); err != nil {
			f.Fatal(err)
		}
		if dump, err := ReadMRT(bytes.NewReader(buf.Bytes())); err != nil || !reflect.DeepEqual(dump.Routes, rib.Routes()) {
			f.Fatalf("seed does not read back: err = %v", err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dump, err := ReadMRT(bytes.NewReader(data))
		if err != nil {
			return
		}
		rib := dump.RIB()
		want := rib.Routes()
		var buf bytes.Buffer
		if err := rib.WriteMRT(&buf, dump.Timestamp, dump.Collector, MRTPeer{ASN: 64512}, dump.ViewName); err != nil {
			t.Fatalf("accepted dump does not write back: %v", err)
		}
		back, err := ReadMRT(&buf)
		if err != nil {
			t.Fatalf("written-back dump refused: %v", err)
		}
		if !slices.EqualFunc(back.Routes, want, func(a, b Route) bool { return reflect.DeepEqual(a, b) }) {
			t.Fatalf("routes changed through a write-back:\n got %+v\nwant %+v", back.Routes, want)
		}
	})
}
