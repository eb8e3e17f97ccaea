package bgp

import (
	"testing"

	"countrymon/internal/netmodel"
)

func TestRIBApplyAndSnapshot(t *testing.T) {
	rib := NewRIB()
	rib.Announce(Route{
		Prefix: netmodel.MustParsePrefix("193.151.240.0/23"),
		Path:   []netmodel.ASN{64512, 25482}, NextHop: netmodel.MustParseAddr("10.0.0.1"),
		Origin: OriginIGP,
	})
	rib.Announce(Route{
		Prefix: netmodel.MustParsePrefix("176.8.0.0/22"),
		Path:   []netmodel.ASN{64512, 20485, 15895}, NextHop: netmodel.MustParseAddr("10.0.0.1"),
		Origin: OriginIGP,
	})
	if rib.Len() != 2 {
		t.Fatalf("Len = %d", rib.Len())
	}
	snap := rib.Snapshot(map[netmodel.ASN]bool{20485: true})
	if got := snap.RoutedBlocks(25482); got != 2 {
		t.Errorf("AS25482 routed /24s = %d, want 2", got)
	}
	if got := snap.RoutedBlocks(15895); got != 4 {
		t.Errorf("AS15895 routed /24s = %d, want 4", got)
	}
	if !snap.BlockRouted(netmodel.MustParseBlock("193.151.241.0/24")) {
		t.Error("block not routed")
	}
	if snap.BlockRouted(netmodel.MustParseBlock("8.8.8.0/24")) {
		t.Error("foreign block routed")
	}
	// Rerouting flag: Kyivstar path goes through suspect 20485.
	if !snap.Rerouted[netmodel.MustParseBlock("176.8.1.0/24")] {
		t.Error("rerouted flag missing")
	}
	if snap.Rerouted[netmodel.MustParseBlock("193.151.240.0/24")] {
		t.Error("clean path flagged as rerouted")
	}
}

func TestRIBWithdraw(t *testing.T) {
	rib := NewRIB()
	p := netmodel.MustParsePrefix("10.0.0.0/24")
	rib.Announce(Route{Prefix: p, Path: []netmodel.ASN{1}, NextHop: 1})
	rib.Withdraw(p)
	if rib.Len() != 0 {
		t.Fatal("withdraw did not remove route")
	}
	snap := rib.Snapshot(nil)
	if snap.RoutedBlocks(1) != 0 {
		t.Error("withdrawn AS still has blocks")
	}
}

func TestRIBMoreSpecificWins(t *testing.T) {
	rib := NewRIB()
	rib.Announce(Route{Prefix: netmodel.MustParsePrefix("10.0.0.0/23"), Path: []netmodel.ASN{100}, NextHop: 1})
	rib.Announce(Route{Prefix: netmodel.MustParsePrefix("10.0.1.0/24"), Path: []netmodel.ASN{200}, NextHop: 1})
	snap := rib.Snapshot(nil)
	if got := snap.BlockOrigin[netmodel.MustParseBlock("10.0.1.0/24")]; got != 200 {
		t.Errorf("more-specific origin = %v, want 200", got)
	}
	if got := snap.BlockOrigin[netmodel.MustParseBlock("10.0.0.0/24")]; got != 100 {
		t.Errorf("covering origin = %v, want 100", got)
	}
	if snap.RoutedBlocks(100) != 1 || snap.RoutedBlocks(200) != 1 {
		t.Errorf("per-AS counts = %d/%d", snap.RoutedBlocks(100), snap.RoutedBlocks(200))
	}
}

func TestRIBReplaceRoute(t *testing.T) {
	rib := NewRIB()
	p := netmodel.MustParsePrefix("10.0.0.0/24")
	rib.Announce(Route{Prefix: p, Path: []netmodel.ASN{1, 2}, NextHop: 1})
	rib.Announce(Route{Prefix: p, Path: []netmodel.ASN{3, 4}, NextHop: 2})
	rt, ok := rib.Lookup(p)
	if !ok || rt.OriginASN() != 4 {
		t.Fatalf("route not replaced: %+v ok=%v", rt, ok)
	}
	if rib.Len() != 1 {
		t.Error("duplicate routes kept")
	}
}

func TestRoutePassesThrough(t *testing.T) {
	r := Route{Path: []netmodel.ASN{64512, 20485, 25482}}
	if !r.PassesThrough(20485) || r.PassesThrough(9999) {
		t.Error("PassesThrough wrong")
	}
	var empty Route
	if empty.OriginASN() != 0 {
		t.Error("empty path origin should be 0")
	}
}
