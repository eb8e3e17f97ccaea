package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/faults"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
	"countrymon/internal/timeline"
)

// scanOnce scans a /20 over a fresh simulated wire, optionally through the
// shim and a fault wrapper, and returns the round serialized into a store.
func scanOnce(t *testing.T, wrapFaults bool, st *shimStats) ([]byte, scanner.Stats) {
	t.Helper()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	resp := simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		if dst.HostByte()%3 == 0 {
			return simnet.Reply{Kind: simnet.EchoReply, RTT: 30 * time.Millisecond}
		}
		return simnet.Reply{Kind: simnet.NoReply}
	})
	var tr scanner.Transport = simnet.New(netmodel.MustParseAddr("198.51.100.1"), resp, start)
	if wrapFaults {
		tr = faults.NewTransport(tr, nil, faults.Profile{Seed: 5, DropProb: 0.01, SendErrorProb: 0.01})
	}
	if st != nil {
		sh := newShim(tr, st)
		if scanner.AsBatch(sh) != scanner.BatchTransport(sh) {
			t.Fatal("the scanner would wrap the shim in its packet-at-a-time adapter")
		}
		tr = sh
	}
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{netmodel.MustParsePrefix("10.0.0.0/20")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := scanner.New(tr, scanner.Config{Seed: 11, Epoch: 1, Clock: tr.(scanner.Clock)}).RunContext(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	store := dataset.NewStore(timeline.New(start, start.Add(2*time.Hour), 2*time.Hour), ts.Blocks())
	store.AddRoundData(0, rd)
	store.SetDone(0)
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rd.Stats
}

// TestShimIsTransparent: a shimmed round is byte-identical to an unshimmed
// one, plain and under injected faults, and the shim counted exactly the
// probes the scanner reports sent.
func TestShimIsTransparent(t *testing.T) {
	for _, wrapFaults := range []bool{false, true} {
		plain, plainStats := scanOnce(t, wrapFaults, nil)
		st := &shimStats{}
		shimmed, shimStatsGot := scanOnce(t, wrapFaults, st)
		if !bytes.Equal(plain, shimmed) {
			t.Errorf("faults=%v: shimmed round differs from the unshimmed one", wrapFaults)
		}
		if plainStats != shimStatsGot {
			t.Errorf("faults=%v: stats %+v, unshimmed %+v", wrapFaults, shimStatsGot, plainStats)
		}
		if got := uint64(st.writePkts.Load()); got != shimStatsGot.Sent {
			t.Errorf("faults=%v: shim counted %d packets, scanner sent %d", wrapFaults, got, shimStatsGot.Sent)
		}
		if len(st.sent) == 0 || len(st.recv) == 0 {
			t.Errorf("faults=%v: shim captured %d probes and %d replies", wrapFaults, len(st.sent), len(st.recv))
		}
	}
}
