package scanner6_test

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/scanner6"
	"countrymon/internal/sim"
	"countrymon/internal/simnet"
	"countrymon/internal/timeline"
)

func v6(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestHitlistBasics(t *testing.T) {
	hl, err := scanner6.NewHitlist([]netip.Addr{
		v6("2a0d:8480::2"), v6("2a0d:8480::1"), v6("2a0d:8480::1"), // dup
		v6("2a0d:8481::9"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if hl.Len() != 3 {
		t.Fatalf("len = %d", hl.Len())
	}
	sites := hl.Sites()
	if len(sites) != 2 {
		t.Fatalf("sites = %v", sites)
	}
	if _, err := scanner6.NewHitlist(nil); err == nil {
		t.Error("empty hitlist accepted")
	}
	if _, err := scanner6.NewHitlist([]netip.Addr{netip.MustParseAddr("10.0.0.1")}); err == nil {
		t.Error("IPv4 address accepted")
	}
}

func TestSite(t *testing.T) {
	a := v6("2a0d:8480:7:abcd::42")
	s := scanner6.Site(a)
	if s.Bits() != 48 {
		t.Fatalf("bits = %d", s.Bits())
	}
	if !s.Contains(a) {
		t.Fatal("site does not contain its address")
	}
}

func TestProbeRoundOverSimnet6(t *testing.T) {
	sc := sim.MustBuild(sim.Config{Seed: 42, Scale: 0.02,
		End: timeline.DefaultStart.AddDate(0, 2, 0)})
	hl, err := sc.V6Hitlist()
	if err != nil {
		t.Fatal(err)
	}
	if hl.Len() < 100 {
		t.Fatalf("hitlist too small: %d", hl.Len())
	}
	start := timeline.DefaultStart
	wire := simnet.New6(v6("2001:db8::1"), sc.V6Responder(), start)
	p := scanner6.New(wire, scanner6.Config{Rate: 0, Seed: 7, Epoch: 1, Clock: wire, Cooldown: time.Second})
	rd, err := p.Run(hl)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.Sent != uint64(hl.Len()) {
		t.Errorf("sent = %d, want %d", rd.Stats.Sent, hl.Len())
	}
	if rd.Stats.Valid == 0 {
		t.Fatal("no valid replies")
	}
	if rd.Stats.Invalid != 0 {
		t.Errorf("invalid = %d", rd.Stats.Invalid)
	}
	// Response share should be in the adoption band (1%..95%).
	share := float64(rd.Stats.Valid) / float64(rd.Stats.Sent)
	if share < 0.05 || share > 0.9 {
		t.Errorf("responsive share = %.2f", share)
	}
	// Error harvesting reveals routers.
	if len(rd.ErrorSources) == 0 {
		t.Error("no routers harvested from ICMPv6 errors")
	}
	for _, es := range rd.ErrorSources {
		if !es.Router.IsValid() || es.OriginalDst == es.Router {
			t.Fatalf("bad error source %+v", es)
		}
	}
	// Per-site accounting adds up.
	totalTargets, totalResp := 0, 0
	for i := range rd.Sites {
		totalTargets += rd.Sites[i].Targets
		totalResp += rd.Sites[i].Responses
		if rd.Sites[i].Responses > rd.Sites[i].Targets {
			t.Fatalf("site %v: more responses than targets", rd.Sites[i].Site)
		}
	}
	if totalTargets != hl.Len() {
		t.Errorf("site targets = %d", totalTargets)
	}
	if uint64(totalResp) != rd.Stats.Valid {
		t.Errorf("site responses %d vs valid %d", totalResp, rd.Stats.Valid)
	}
}

// flaky fails the wire's failWrite-th WritePacket and failRead-th ReadPacket
// call (1-based, 0 = never) with err, once each.
type flaky struct {
	*simnet.Network6
	failWrite, failRead int
	err                 error
	writes, reads       int
}

func (f *flaky) WritePacket(b []byte) error {
	if f.writes++; f.writes == f.failWrite {
		return f.err
	}
	return f.Network6.WritePacket(b)
}

func (f *flaky) ReadPacket(wait time.Duration) ([]byte, time.Time, error) {
	if f.reads++; f.reads == f.failRead {
		return nil, time.Time{}, f.err
	}
	return f.Network6.ReadPacket(wait)
}

type transportErr struct{ transient bool }

func (e transportErr) Error() string   { return "flaky transport" }
func (e transportErr) Transient() bool { return e.transient }

// TestRunTransportErrors: a transient send error costs one probe and a
// transient read error costs nothing, both counted; a hard error on either
// side fails the round instead of reading as an unresponsive hitlist.
func TestRunTransportErrors(t *testing.T) {
	const targets = 8
	var addrs []netip.Addr
	for i := 1; i <= targets; i++ {
		addrs = append(addrs, netip.AddrFrom16([16]byte{0x2a, 0x0d, 0x84, 0x80, 15: byte(i)}))
	}
	hl, err := scanner6.NewHitlist(addrs)
	if err != nil {
		t.Fatal(err)
	}
	allUp := func(netip.Addr, time.Time) simnet.Reply6 {
		return simnet.Reply6{Kind: simnet.EchoReply, RTT: 20 * time.Millisecond}
	}
	for _, tc := range []struct {
		name                string
		failWrite, failRead int
		transient           bool
		wantErr             bool
		sent, valid         uint64
		sendErrs, recvErrs  uint64
	}{
		{name: "clean", sent: targets, valid: targets},
		{name: "transient send", failWrite: 3, transient: true, sent: targets - 1, valid: targets - 1, sendErrs: 1},
		{name: "hard send", failWrite: 3, wantErr: true},
		{name: "transient read", failRead: 5, transient: true, sent: targets, valid: targets, recvErrs: 1},
		{name: "transient read in cooldown", failRead: targets + 1, transient: true, sent: targets, valid: targets, recvErrs: 1},
		{name: "hard read", failRead: 5, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := simnet.New6(v6("2001:db8::1"), allUp, timeline.DefaultStart)
			tr := &flaky{Network6: wire, failWrite: tc.failWrite, failRead: tc.failRead, err: transportErr{tc.transient}}
			rd, err := scanner6.New(tr, scanner6.Config{Seed: 7, Epoch: 1, Clock: wire, Cooldown: time.Second}).Run(hl)
			if tc.wantErr {
				if !errors.Is(err, tr.err) {
					t.Fatalf("Run = %v, want the transport's hard error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			st := rd.Stats
			if st.Sent != tc.sent || st.Valid != tc.valid || st.SendErrors != tc.sendErrs || st.RecvErrors != tc.recvErrs {
				t.Fatalf("sent %d valid %d send errors %d recv errors %d, want %d %d %d %d",
					st.Sent, st.Valid, st.SendErrors, st.RecvErrors, tc.sent, tc.valid, tc.sendErrs, tc.recvErrs)
			}
		})
	}
}

func TestV6AdoptionGrows(t *testing.T) {
	sc := sim.MustBuild(sim.Config{Seed: 42, Scale: 0.02})
	hl, err := sc.V6Hitlist()
	if err != nil {
		t.Fatal(err)
	}
	run := func(at time.Time) float64 {
		wire := simnet.New6(v6("2001:db8::1"), sc.V6Responder(), at)
		p := scanner6.New(wire, scanner6.Config{Rate: 0, Seed: 9, Epoch: 2, Clock: wire, Cooldown: time.Second})
		rd, err := p.Run(hl)
		if err != nil {
			t.Fatal(err)
		}
		return float64(rd.Stats.Valid) / float64(rd.Stats.Sent)
	}
	early := run(sc.TL.Start())
	late := run(sc.TL.End())
	if late <= early {
		t.Errorf("IPv6 adoption should grow: early %.3f late %.3f (Fig 20)", early, late)
	}
	// Rivne is scripted with the strongest growth.
	_ = netmodel.Rivne
}

func TestRegionPrefixRoundTrip(t *testing.T) {
	for _, r := range netmodel.Regions() {
		p := sim.V6RegionPrefix(r)
		if p.Bits() != 40 {
			t.Fatalf("%v prefix bits = %d", r, p.Bits())
		}
		if !p.Contains(p.Addr()) {
			t.Fatal("prefix does not contain its base")
		}
	}
}
