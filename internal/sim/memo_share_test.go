package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"countrymon/internal/campaign"
	"countrymon/internal/faults"
	"countrymon/internal/icmp"
	"countrymon/internal/scanner"
	"countrymon/internal/sim"
	"countrymon/internal/simnet"
)

// memoCounter sits between a scan's transport stack and its simnet and asks,
// for every probe about to reach the far end, whether the responder's
// BlockStateAt call will be answered from the memo. Peeking from outside
// keeps the hot path free of a counter.
type memoCounter struct {
	*simnet.Network
	world       *sim.Scenario
	calls, hits *atomic.Int64
}

func (c *memoCounter) peek(pkt []byte) {
	h, _, err := icmp.ParseIPv4(pkt)
	if err != nil {
		return
	}
	bi := c.world.Space.BlockIndex(h.Dst.Block())
	if bi < 0 {
		return
	}
	c.calls.Add(1)
	if c.world.MemoHolds(bi, c.Now()) {
		c.hits.Add(1)
	}
}

func (c *memoCounter) WritePacket(pkt []byte) error {
	c.peek(pkt)
	return c.Network.WritePacket(pkt)
}

// WriteBatch goes packet by packet so each peek sees what the probes before
// it left in the memo; simnet holds the clock still either way.
func (c *memoCounter) WriteBatch(pkts [][]byte) (int, error) {
	for i, pkt := range pkts {
		if err := c.WritePacket(pkt); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// TestMemoShareOnCampaignChaos measures the property the far-end memo's gain
// rests on, on the shape of the benchmark's campaign_chaos workload: two
// scenario-file countries (96 and 48 blocks) on one three-vantage fleet at
// bi-hourly rounds, blackouts on UA's v0 and stalls on its v1. A block's 256
// probes and its re-probes fall in the round's first virtual minutes, so
// nearly every BlockStateAt call finds its (block, minute) already evaluated.
// (solo_durable answers from a table responder and never calls BlockStateAt:
// its share is 0 of 0.)
func TestMemoShareOnCampaignChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a 40-round two-country campaign")
	}
	const rounds = 40
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	interval := 2 * time.Hour
	dir := t.TempDir()
	spec := &campaign.Spec{Vantages: 3, Rounds: 365 * 12, Interval: interval, Start: start, Seed: 1}
	for ci, c := range []struct {
		code, name string
		ases       int
	}{{"UA", "Ukraine", 12}, {"RO", "Romania", 6}} {
		var ases []map[string]any
		asn := func(a int) uint32 { return uint32(64600 + 100*ci + a) }
		for a := 0; a < c.ases; a++ {
			ases = append(ases, map[string]any{
				"asn": asn(a), "name": fmt.Sprintf("%s-net-%d", c.code, a), "region": []string{"Kyiv", "Lviv", "Poltava"}[a%3],
				"blocks": 8, "density": 60 + 8*a, "resp_rate": 0.8, "diurnal_pct": 30,
			})
		}
		doc := map[string]any{
			"name": "share-" + c.code, "seed": 100 + ci, "country": c.code, "country_name": c.name,
			"start": start.Format(time.RFC3339), "interval": "2h", "days": 365, "ases": ases,
			"events": []map[string]any{
				{"name": "outage", "at": "20h", "duration": "24h", "effect": "bgp_down", "ases": []uint32{asn(1)}},
				{"name": "dip", "at": "30h", "duration": "24h", "effect": "ips_drop", "magnitude": 0.6, "ases": []uint32{asn(2)}},
			},
			"score": map[string]any{"ases": []uint32{asn(1)}},
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, c.code+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec.Countries = append(spec.Countries, campaign.CountrySpec{Code: c.code, Name: c.name, Model: path})
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	// The benchmark's fault layout: per 20 rounds two blacked-out rounds on
	// v0, and in every other 20 a three-round stall on v1.
	window := func(from, to int, kind faults.Kind) faults.Window {
		return faults.Window{
			From: start.Add(time.Duration(from)*interval - 30*time.Minute),
			To:   start.Add(time.Duration(to)*interval + 90*time.Minute),
			Kind: kind,
		}
	}
	var blackout, stall []faults.Window
	for base := 0; base < rounds; base += 20 {
		blackout = append(blackout, window(base+3, base+3, faults.Blackout), window(base+9, base+9, faults.Blackout))
		if (base/20)%2 == 1 {
			stall = append(stall, window(base+15, base+17, faults.Stall))
		}
	}

	var calls, hits atomic.Int64
	var co *campaign.Coordinator
	wrap := func(country, vantage string, tr scanner.Transport) scanner.Transport {
		tr = &memoCounter{Network: tr.(*simnet.Network), world: co.Country(country).World, calls: &calls, hits: &hits}
		if country == "UA" {
			switch vantage {
			case "v0":
				tr = faults.NewTransport(tr, nil, faults.Profile{Seed: 1, Windows: blackout})
			case "v1":
				tr = faults.NewTransport(tr, nil, faults.Profile{Seed: 1, Windows: stall})
			}
		}
		return tr
	}
	co, err := campaign.New(spec, campaign.Options{WrapTransport: wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for r := 0; r < rounds; r++ {
		if err := co.StepRound(context.Background()); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}

	// The coordinator's SetRouted loop asks once per block per round, always
	// first in its minute: all misses, added here because they do not cross a
	// transport.
	probes := calls.Load()
	for _, c := range co.Countries() {
		calls.Add(int64(rounds * c.World.Space.NumBlocks()))
	}
	share := float64(hits.Load()) / float64(calls.Load())
	t.Logf("BlockStateAt calls %d (%d probes), answered from the memo %d: share %.4f",
		calls.Load(), probes, hits.Load(), share)
	if probes < rounds*100*256 {
		t.Fatalf("only %d probes reached the far end", probes)
	}
	if share < 0.99 {
		t.Fatalf("memo share %.4f, want > 0.99", share)
	}
}
