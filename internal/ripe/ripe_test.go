package ripe

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"countrymon/internal/netmodel"
)

const sampleFile = `# RIPE delegated file (test)
2|ripencc|20211214|4|4|19830705|00000000|+0200
ripencc|UA|ipv4|91.198.4.0|256|20060912|allocated
ripencc|UA|ipv4|176.8.0.0|8192|20110421|allocated
ripencc|UA|ipv4|193.151.240.0|1024|19990101|assigned
ripencc|CZ|ipv4|185.66.0.0|512|20150101|allocated
ripencc|UA|ipv6|2a00:1f00::|32||allocated
ripencc|UA|asn|25482|1|20020101|allocated
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != 4 {
		t.Fatalf("records = %d, want 4 (ipv4 only)", len(f.Records))
	}
	r := f.Records[0]
	if r.CC != "UA" || r.Start != netmodel.MustParseAddr("91.198.4.0") || r.Count != 256 {
		t.Errorf("record 0 = %+v", r)
	}
	if r.Date != time.Date(2006, 9, 12, 0, 0, 0, 0, time.UTC) {
		t.Errorf("date = %v", r.Date)
	}
	if got := f.CountryAddrCount("UA"); got != 256+8192+1024 {
		t.Errorf("UA addr count = %d", got)
	}
	if got := len(f.CountryRecords("CZ")); got != 1 {
		t.Errorf("CZ records = %d", got)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"ripencc|UA|ipv4|91.198.4.0|256\n",                      // too few fields
		"ripencc|UA|ipv4|999.0.0.0|256|20060912|allocated\n",    // bad address
		"ripencc|UA|ipv4|91.198.4.0|0|20060912|allocated\n",     // zero count
		"ripencc|UA|ipv4|91.198.4.0|256|2006-09-12|allocated\n", // bad date
		"ripencc|UA|ipv4|91.198.4.0|notanumber|20060912|allocated\n",
	}
	for _, in := range bad {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleFile))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(f.Records) {
		t.Fatalf("round trip records = %d", len(got.Records))
	}
	for i := range got.Records {
		if got.Records[i] != f.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, got.Records[i], f.Records[i])
		}
	}
}

// TestWriteToBytes pins WriteTo's exact output: the header carries the
// latest record date, so writing the same file twice gives the same bytes.
func TestWriteToBytes(t *testing.T) {
	f := &File{Records: []Record{
		{Registry: "ripencc", CC: "UA", Type: "ipv4", Start: netmodel.MustParseAddr("91.198.4.0"), Count: 256,
			Date: time.Date(2006, 9, 12, 0, 0, 0, 0, time.UTC), Status: StatusAllocated},
		{Registry: "ripencc", CC: "CZ", Type: "ipv4", Start: netmodel.MustParseAddr("185.66.0.0"), Count: 768,
			Date: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC), Status: StatusAssigned},
		{Registry: "ripencc", CC: "UA", Type: "ipv4", Start: netmodel.MustParseAddr("10.0.1.0"), Count: 512,
			Status: StatusAllocated},
	}}
	const want = `2|ripencc|20150101|3|3|19830705|00000000|+0200
ripencc|UA|ipv4|91.198.4.0|256|20060912|allocated
ripencc|CZ|ipv4|185.66.0.0|768|20150101|assigned
ripencc|UA|ipv4|10.0.1.0|512||allocated
`
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("WriteTo wrote\n%s\nwant\n%s", buf.String(), want)
	}
	if n != int64(len(want)) {
		t.Errorf("WriteTo returned %d, want %d", n, len(want))
	}
	buf.Reset()
	if _, err := (&File{}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "2|ripencc|00000000|0|0|19830705|00000000|+0200\n"; got != want {
		t.Errorf("empty file wrote %q, want %q", got, want)
	}
}

func TestDiffCountry(t *testing.T) {
	oldF, _ := Parse(strings.NewReader(sampleFile))
	newSample := `2|ripencc|20250101|4|4|19830705|00000000|+0200
ripencc|UA|ipv4|91.198.4.0|256|20060912|allocated
ripencc|RU|ipv4|176.8.0.0|8192|20110421|allocated
ripencc|CZ|ipv4|185.66.0.0|512|20150101|allocated
ripencc|UA|ipv4|45.155.0.0|512|20240101|allocated
`
	newF, err := Parse(strings.NewReader(newSample))
	if err != nil {
		t.Fatal(err)
	}
	d := DiffCountry(oldF, newF, "UA")
	if d.Kept != 1 {
		t.Errorf("Kept = %d", d.Kept)
	}
	if d.Recoded["RU"] != 1 || d.RecodedTotal() != 1 {
		t.Errorf("Recoded = %+v", d.Recoded)
	}
	if d.Withdrawn != 1 { // 193.151.240.0 gone
		t.Errorf("Withdrawn = %d", d.Withdrawn)
	}
	if d.Added != 1 { // 45.155.0.0 new
		t.Errorf("Added = %d", d.Added)
	}
}
