package bgp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"countrymon/internal/netmodel"
)

// MRT (RFC 6396) TABLE_DUMP_V2 reader/writer — the on-disk format of the
// RouteViews RIB dumps the paper consumes every two hours (§3.2). A dump is
// a PEER_INDEX_TABLE record followed by one RIB_IPV4_UNICAST record per
// prefix; AS numbers inside TABLE_DUMP_V2 path attributes are always four
// octets.

// MRT record types and subtypes used here.
const (
	mrtTypeTableDumpV2 = 13

	mrtSubtypePeerIndexTable = 1
	mrtSubtypeRIBIPv4Unicast = 2
)

// mrtHeaderLen is the fixed MRT record header size.
const mrtHeaderLen = 12

// ErrMRTFormat reports malformed MRT input.
var ErrMRTFormat = errors.New("bgp: malformed MRT data")

// MRTPeer describes one collector peer in the index table.
type MRTPeer struct {
	BGPID netmodel.Addr
	Addr  netmodel.Addr
	ASN   netmodel.ASN
}

// MRTDump is a decoded TABLE_DUMP_V2 snapshot.
type MRTDump struct {
	Timestamp time.Time
	Collector netmodel.Addr
	ViewName  string
	Peers     []MRTPeer
	Routes    []Route
}

func writeMRTRecord(w io.Writer, ts time.Time, subtype uint16, body []byte) error {
	var hdr [mrtHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(ts.Unix()))
	binary.BigEndian.PutUint16(hdr[4:], mrtTypeTableDumpV2)
	binary.BigEndian.PutUint16(hdr[6:], subtype)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// WriteMRT serializes the RIB as a TABLE_DUMP_V2 snapshot taken at ts, as a
// single-peer collector view (RouteViews dumps carry one entry per peer;
// the monitor's signal derivation only needs one). It refuses a route
// without an AS_PATH or a NEXT_HOP.
func (r *RIB) WriteMRT(w io.Writer, ts time.Time, collector netmodel.Addr, peer MRTPeer, viewName string) error {
	bw := bufio.NewWriter(w)

	// PEER_INDEX_TABLE.
	var idx []byte
	cb := collector.Bytes()
	idx = append(idx, cb[:]...)
	idx = append(idx, byte(len(viewName)>>8), byte(len(viewName)))
	idx = append(idx, viewName...)
	idx = append(idx, 0, 1) // one peer
	// Peer type 0x02: IPv4 address, 4-octet AS.
	idx = append(idx, 0x02)
	pb := peer.BGPID.Bytes()
	idx = append(idx, pb[:]...)
	pa := peer.Addr.Bytes()
	idx = append(idx, pa[:]...)
	var asn [4]byte
	binary.BigEndian.PutUint32(asn[:], uint32(peer.ASN))
	idx = append(idx, asn[:]...)
	if err := writeMRTRecord(bw, ts, mrtSubtypePeerIndexTable, idx); err != nil {
		return err
	}

	// RIB_IPV4_UNICAST per route, sequence-numbered.
	for seq, rt := range r.Routes() {
		if err := checkMandatoryAttrs(rt); err != nil {
			return err
		}
		attrs, err := marshalPathAttrs(rt.Origin, rt.Path, rt.NextHop)
		if err != nil {
			return err
		}
		body := make([]byte, 4, 4+prefixWireLen(rt.Prefix)+2+8+len(attrs))
		binary.BigEndian.PutUint32(body, uint32(seq))
		pbuf := make([]byte, prefixWireLen(rt.Prefix))
		putPrefix(pbuf, rt.Prefix)
		body = append(body, pbuf...)
		body = append(body, 0, 1) // entry count: 1
		var entry [8]byte
		binary.BigEndian.PutUint16(entry[0:], 0) // peer index
		binary.BigEndian.PutUint32(entry[2:], uint32(ts.Unix()))
		binary.BigEndian.PutUint16(entry[6:], uint16(len(attrs)))
		body = append(body, entry[:]...)
		body = append(body, attrs...)
		if err := writeMRTRecord(bw, ts, mrtSubtypeRIBIPv4Unicast, body); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMRT parses a TABLE_DUMP_V2 snapshot produced by WriteMRT (or any
// single-view IPv4-unicast dump with 4-octet-AS peers). A RIB entry without
// an AS_PATH or a NEXT_HOP is an ErrMRTFormat.
func ReadMRT(r io.Reader) (*MRTDump, error) {
	br := bufio.NewReader(r)
	dump := &MRTDump{}
	for {
		var hdr [mrtHeaderLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		ts := time.Unix(int64(binary.BigEndian.Uint32(hdr[0:])), 0).UTC()
		typ := binary.BigEndian.Uint16(hdr[4:])
		sub := binary.BigEndian.Uint16(hdr[6:])
		length := binary.BigEndian.Uint32(hdr[8:])
		if length > 1<<24 {
			return nil, fmt.Errorf("%w: record length %d", ErrMRTFormat, length)
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, err
		}
		if typ != mrtTypeTableDumpV2 {
			continue // skip foreign record types
		}
		dump.Timestamp = ts
		switch sub {
		case mrtSubtypePeerIndexTable:
			if err := dump.parsePeerIndex(body); err != nil {
				return nil, err
			}
		case mrtSubtypeRIBIPv4Unicast:
			if err := dump.parseRIBEntry(body); err != nil {
				return nil, err
			}
		}
	}
	return dump, nil
}

func (d *MRTDump) parsePeerIndex(b []byte) error {
	if len(b) < 8 {
		return ErrMRTFormat
	}
	d.Collector = netmodel.AddrFromBytes([4]byte(b[0:4]))
	nameLen := int(binary.BigEndian.Uint16(b[4:]))
	if len(b) < 6+nameLen+2 {
		return ErrMRTFormat
	}
	d.ViewName = string(b[6 : 6+nameLen])
	off := 6 + nameLen
	peerCount := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	for i := 0; i < peerCount; i++ {
		if len(b) < off+1 {
			return ErrMRTFormat
		}
		ptype := b[off]
		off++
		if ptype&0x01 != 0 {
			return fmt.Errorf("%w: IPv6 peers unsupported", ErrMRTFormat)
		}
		addrLen := 4
		asLen := 2
		if ptype&0x02 != 0 {
			asLen = 4
		}
		need := 4 + addrLen + asLen
		if len(b) < off+need {
			return ErrMRTFormat
		}
		p := MRTPeer{
			BGPID: netmodel.AddrFromBytes([4]byte(b[off : off+4])),
			Addr:  netmodel.AddrFromBytes([4]byte(b[off+4 : off+8])),
		}
		if asLen == 4 {
			p.ASN = netmodel.ASN(binary.BigEndian.Uint32(b[off+8:]))
		} else {
			p.ASN = netmodel.ASN(binary.BigEndian.Uint16(b[off+8:]))
		}
		d.Peers = append(d.Peers, p)
		off += need
	}
	return nil
}

func (d *MRTDump) parseRIBEntry(b []byte) error {
	if len(b) < 5 {
		return ErrMRTFormat
	}
	// sequence number: b[0:4] (unused beyond ordering)
	prefix, n, err := getPrefix(b[4:])
	if err != nil {
		return err
	}
	off := 4 + n
	if len(b) < off+2 {
		return ErrMRTFormat
	}
	entries := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	for i := 0; i < entries; i++ {
		if len(b) < off+8 {
			return ErrMRTFormat
		}
		attrLen := int(binary.BigEndian.Uint16(b[off+6:]))
		off += 8
		if len(b) < off+attrLen {
			return ErrMRTFormat
		}
		rt := Route{Prefix: prefix}
		if err := parsePathAttrs(b[off:off+attrLen], &rt.Origin, &rt.Path, &rt.NextHop); err != nil {
			return err
		}
		if err := checkMandatoryAttrs(rt); err != nil {
			return err
		}
		off += attrLen
		if i == 0 { // first peer's view suffices for the monitor
			d.Routes = append(d.Routes, rt)
		}
	}
	return nil
}

// checkMandatoryAttrs rejects a route without an AS_PATH or a NEXT_HOP
// (RFC 4271 §5.1.2–3): its origin would read as AS0, and every block it
// covers would count as routed.
func checkMandatoryAttrs(rt Route) error {
	if len(rt.Path) == 0 || rt.NextHop == 0 {
		return fmt.Errorf("%w: %v announced without AS_PATH or NEXT_HOP", ErrMRTFormat, rt.Prefix)
	}
	return nil
}

// RIB reconstructs a RIB from the dump.
func (d *MRTDump) RIB() *RIB {
	r := NewRIB()
	for _, rt := range d.Routes {
		r.Announce(rt)
	}
	return r
}
