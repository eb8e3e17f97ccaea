package bgp

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"countrymon/internal/netmodel"
)

func TestPrefixWireEncoding(t *testing.T) {
	// /19 should use 3 prefix bytes, /8 one, /0 zero.
	cases := map[string]int{
		"0.0.0.0/0":     1,
		"10.0.0.0/8":    2,
		"176.8.0.0/19":  4,
		"91.198.4.0/24": 4,
		"1.2.3.4/32":    5,
	}
	for s, wire := range cases {
		p := netmodel.MustParsePrefix(s)
		if got := prefixWireLen(p); got != wire {
			t.Errorf("prefixWireLen(%s) = %d, want %d", s, got, wire)
		}
		buf := make([]byte, wire)
		putPrefix(buf, p)
		back, n, err := getPrefix(buf)
		if err != nil || n != wire || back != p {
			t.Errorf("round trip %s: %v n=%d err=%v", s, back, n, err)
		}
	}
}

func TestGetPrefixRejects(t *testing.T) {
	if _, _, err := getPrefix([]byte{33}); err == nil {
		t.Error("prefix length 33 accepted")
	}
	if _, _, err := getPrefix([]byte{24, 1}); err == nil {
		t.Error("truncated prefix accepted")
	}
	if _, _, err := getPrefix(nil); err == nil {
		t.Error("empty prefix accepted")
	}
}

// A 100-hop AS_PATH is a 402-byte segment, more than a one-octet attribute
// length holds, so it survives a dump only in the extended-length form.
func TestLongASPathExtendedLength(t *testing.T) {
	rt := Route{
		Prefix: netmodel.MustParsePrefix("10.0.0.0/24"),
		Path:   hops(100), NextHop: netmodel.MustParseAddr("10.0.0.1"), Origin: OriginIGP,
	}
	rib := NewRIB()
	rib.Announce(rt)
	var buf bytes.Buffer
	if err := rib.WriteMRT(&buf, time.Unix(0, 0), 0, MRTPeer{ASN: 64512}, "v"); err != nil {
		t.Fatal(err)
	}
	dump, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Routes) != 1 || !reflect.DeepEqual(dump.Routes[0], rt) {
		t.Errorf("long AS path corrupted: %+v", dump.Routes)
	}
}
