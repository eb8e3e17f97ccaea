package query

import (
	"net/url"
	"testing"
)

// queryCases are the shapes url.ParseQuery treats specially: escaped and
// '+'-spaced keys and values, repeated keys, empty and key-only pairs,
// ';' anywhere in a pair, and malformed escapes in a key or a value, each
// before or after the pair that answers.
var queryCases = []string{
	"",
	"entity=asn/6877&limit=40",
	"entity=asn%2F6877&from=1&until=2",
	"%65ntity=asn/1&entity=asn/2",
	"entity=a+b&entity=c",
	"a+b=1&a%20b=2",
	"entity=&entity=x",
	"entity&entity=x",
	"&&entity=x&&",
	"=x&entity=y",
	"&=x",
	"entity=x;y&entity=z",
	"a=1;entity=2&entity=3",
	"entity=%zz&entity=ok",
	"entity%=1&entity=2",
	"entity=%4&entity=last",
	"entity=%41%42%43",
	"entity=%",
	"entity=%4",
	"token=bench-token&entity=asn/as1&from=1646172000&until=1646776800",
	"entity=1=2=3",
	"limit=-1&offset=abc&since=07",
	"k=%e2%82%ac&k=%E2%82%AC",
}

var queryKeys = []string{"entity", "limit", "from", "until", "token", "a b", "", "k", "=", "entity;", "since", "offset", "x"}

func checkAgainstParseQuery(t *testing.T, raw, key string) {
	t.Helper()
	want, err := url.ParseQuery(raw)
	if got := Valid(raw); got != (err == nil) {
		t.Fatalf("Valid(%q) = %v, ParseQuery error %v", raw, got, err)
	}
	if got, w := Get(raw, key), want.Get(key); got != w {
		t.Fatalf("Get(%q, %q) = %q, ParseQuery gives %q", raw, key, got, w)
	}
}

func TestGetMatchesParseQuery(t *testing.T) {
	for _, raw := range queryCases {
		for _, key := range queryKeys {
			checkAgainstParseQuery(t, raw, key)
		}
	}
}

// FuzzGetMatchesParseQuery drives Get and Valid beside url.ParseQuery on
// arbitrary query strings and keys.
func FuzzGetMatchesParseQuery(f *testing.F) {
	for _, raw := range queryCases {
		for _, key := range queryKeys {
			f.Add(raw, key)
		}
	}
	f.Fuzz(checkAgainstParseQuery)
}

// TestGetZeroAlloc pins the point of the package: looking a parameter up in
// a query with nothing to unescape allocates nothing, where url.ParseQuery
// built a map and a slice per parameter (six allocations for this query).
func TestGetZeroAlloc(t *testing.T) {
	const raw = "entity=asn/as64512&from=1646172000&until=1646776800&limit=40&offset=3&token=bench-token"
	var sink string
	if n := testing.AllocsPerRun(100, func() {
		if !Valid(raw) {
			t.Fatal("query reported invalid")
		}
		for _, key := range []string{"entity", "from", "until", "limit", "offset", "token", "since"} {
			sink = Get(raw, key)
		}
	}); n != 0 {
		t.Fatalf("Valid + 7 Gets allocate %.1f times, want 0", n)
	}
	_ = sink
}
