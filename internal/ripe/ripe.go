// Package ripe reads and writes RIR delegation files in the RIPE NCC
// "delegated" format the paper uses to build its target list (§3.2):
//
//	ripencc|UA|ipv4|91.198.4.0|256|20060912|allocated
//
// It also provides snapshot diffing for the churn analysis of Appendix B
// (country-code changes, withdrawn and newly allocated ranges).
package ripe

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"countrymon/internal/netmodel"
)

// Status values used in delegation files.
const (
	StatusAllocated = "allocated"
	StatusAssigned  = "assigned"
)

// Record is one delegation line.
type Record struct {
	Registry string // "ripencc"
	CC       string // ISO country code
	Type     string // "ipv4" (others preserved but unused)
	Start    netmodel.Addr
	Count    uint64 // number of addresses (not necessarily a power of two)
	Date     time.Time
	Status   string
}

// Key identifies a delegation range independent of its metadata.
type Key struct {
	Start netmodel.Addr
	Count uint64
}

// Key returns the record's range identity.
func (r Record) Key() Key { return Key{Start: r.Start, Count: r.Count} }

// File is a parsed delegation snapshot.
type File struct {
	Records []Record
}

// Parse reads a delegated-format file.
func Parse(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	f := &File{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		// Version line: "2|ripencc|...". Summary line: "...|summary".
		if len(fields) > 0 && fields[len(fields)-1] == "summary" {
			continue
		}
		if len(fields) >= 2 && fields[0] != "" && fields[0][0] >= '0' && fields[0][0] <= '9' {
			continue // version header
		}
		if len(fields) < 7 {
			return nil, fmt.Errorf("ripe: line %d: %d fields", lineNo, len(fields))
		}
		if fields[2] != "ipv4" {
			continue // ipv6/asn records are out of scope
		}
		start, err := netmodel.ParseAddr(fields[3])
		if err != nil {
			return nil, fmt.Errorf("ripe: line %d: %v", lineNo, err)
		}
		count, err := strconv.ParseUint(fields[4], 10, 64)
		if err != nil || count == 0 {
			return nil, fmt.Errorf("ripe: line %d: bad count %q", lineNo, fields[4])
		}
		var date time.Time
		if fields[5] != "" {
			date, err = time.Parse("20060102", fields[5])
			if err != nil {
				return nil, fmt.Errorf("ripe: line %d: bad date %q", lineNo, fields[5])
			}
		}
		f.Records = append(f.Records, Record{
			Registry: fields[0], CC: fields[1], Type: fields[2],
			Start: start, Count: count, Date: date, Status: fields[6],
		})
	}
	return f, sc.Err()
}

// WriteTo writes the file in delegated format, including a version header.
// The header's date is the latest record date (00000000 when no record has
// one), so the bytes depend on the file alone.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var latest time.Time
	for _, r := range f.Records {
		if r.Date.After(latest) {
			latest = r.Date
		}
	}
	date := "00000000"
	if !latest.IsZero() {
		date = latest.Format("20060102")
	}
	k, err := fmt.Fprintf(bw, "2|ripencc|%s|%d|%d|19830705|00000000|+0200\n",
		date, len(f.Records), len(f.Records))
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, r := range f.Records {
		date := ""
		if !r.Date.IsZero() {
			date = r.Date.Format("20060102")
		}
		k, err := fmt.Fprintf(bw, "%s|%s|%s|%s|%d|%s|%s\n",
			r.Registry, r.CC, r.Type, r.Start, r.Count, date, r.Status)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// CountryRecords returns the records delegated to cc, sorted by start.
func (f *File) CountryRecords(cc string) []Record {
	var out []Record
	for _, r := range f.Records {
		if r.CC == cc {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// CountryAddrCount sums the delegated address count for cc.
func (f *File) CountryAddrCount(cc string) uint64 {
	var n uint64
	for _, r := range f.Records {
		if r.CC == cc {
			n += r.Count
		}
	}
	return n
}

// Diff compares two snapshots for a country of interest (Appendix B).
type Diff struct {
	Kept      int            // ranges still delegated to the country
	Recoded   map[string]int // ranges now under a different CC, by new CC
	Withdrawn int            // ranges gone entirely
	Added     int            // ranges new in the second snapshot
}

// DiffCountry computes the delegation churn for cc between two snapshots.
func DiffCountry(oldF, newF *File, cc string) Diff {
	d := Diff{Recoded: make(map[string]int)}
	newByKey := make(map[Key]Record)
	for _, r := range newF.Records {
		newByKey[r.Key()] = r
	}
	oldKeys := make(map[Key]bool)
	for _, r := range oldF.Records {
		if r.CC != cc {
			continue
		}
		oldKeys[r.Key()] = true
		nr, ok := newByKey[r.Key()]
		switch {
		case !ok:
			d.Withdrawn++
		case nr.CC == cc:
			d.Kept++
		default:
			d.Recoded[nr.CC]++
		}
	}
	for _, r := range newF.Records {
		if r.CC == cc && !oldKeys[r.Key()] {
			d.Added++
		}
	}
	return d
}

// RecodedTotal returns the number of re-registered ranges across all
// destination country codes.
func (d Diff) RecodedTotal() int {
	n := 0
	for _, v := range d.Recoded {
		n += v
	}
	return n
}
