package main

import (
	"bytes"
	"time"

	"countrymon/internal/dataset"
	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
	"countrymon/internal/par"
	"countrymon/internal/scanner"
	"countrymon/internal/signals"
	"countrymon/internal/sim"
)

// The micro-loops time a layer's public function on its own, over inputs
// the traced pass captured or built. They are sized to a few milliseconds
// each: enough calls for a stable mean, short next to the pass itself.

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

// commonLayerMetrics records the context every wall-clock number needs.
func commonLayerMetrics(ms *metricSet) {
	ms.set("par.workers", float64(par.Workers()), 1)
}

// packetMicroLoops measures the scanner's and icmp's per-packet functions
// over the probes and replies the shim sampled: permutation walk, probe
// encode, reply parse+validate, and the bare icmp codec. val must be the
// validator of the scan the sample came from, so decoding takes the
// accepting path.
func packetMicroLoops(ms *metricSet, st *shimStats, val *scanner.Validator, targets uint64, seed uint64) {
	st.mu.Lock()
	sent, recv := st.sent, st.recv
	st.mu.Unlock()
	if len(sent) == 0 {
		return
	}

	if pm, err := scanner.NewPermutation(targets, seed); err == nil {
		cur := pm.Iterate()
		n := 0
		t0 := time.Now()
		for {
			v, ok := cur.Next()
			if !ok {
				break
			}
			sink += v
			n++
		}
		ms.set("scanner.permute_ns_per_target", float64(time.Since(t0))/float64(n), n)
	}

	// Headers and messages of the sampled probes, parsed once up front.
	hdrs := make([]icmp.IPv4Header, 0, len(sent))
	msgs := make([]icmp.Message, 0, len(sent))
	for _, p := range sent {
		h, body, err := icmp.ParseIPv4(p)
		if err != nil {
			continue
		}
		m, err := icmp.Parse(body)
		if err != nil {
			continue
		}
		hdrs, msgs = append(hdrs, h), append(msgs, m)
	}
	const reps = 50
	buf := make([]byte, 0, 128)
	at := time.Unix(0, 0)
	n := reps * len(hdrs)
	ms.set("scanner.probe_encode_ns", nsPerCall(n, func(i int) {
		buf = val.AppendProbeIPv4(buf[:0], hdrs[i%len(hdrs)], at)
	}), n)
	sink += uint64(len(buf))

	m0 := readMem()
	ms.set("icmp.encode_ns_per_pkt", nsPerCall(n, func(i int) {
		buf = icmp.AppendMarshalIPv4(buf[:0], hdrs[i%len(hdrs)], msgs[i%len(msgs)])
	}), n)
	parseNs := nsPerCall(n, func(i int) {
		h, body, err := icmp.ParseIPv4(sent[i%len(sent)])
		if err == nil {
			if m, err := icmp.Parse(body); err == nil {
				sink += uint64(m.Seq) + uint64(h.ID)
			}
		}
	})
	ms.set("icmp.parse_ns_per_pkt", parseNs, n)
	ms.set("icmp.allocs_per_pkt", float64(readMem().since(m0).mallocs)/float64(2*n), 2*n)

	if len(recv) > 0 {
		accepted := 0
		n := reps * len(recv)
		ms.set("scanner.reply_decode_ns", nsPerCall(n, func(i int) {
			h, body, err := icmp.ParseIPv4(recv[i%len(recv)])
			if err != nil {
				return
			}
			m, err := icmp.Parse(body)
			if err != nil {
				return
			}
			if _, ok := val.DecodeReply(h.Src, m, at); ok {
				accepted++
			}
		}), n)
		sink += uint64(accepted)
	}
}

// storeCodecMetrics measures the v4 store codec in memory.
func storeCodecMetrics(ms *metricSet, st *dataset.Store, reps int) error {
	var buf bytes.Buffer
	var enc, dec []time.Duration
	for i := 0; i < reps; i++ {
		buf.Reset()
		t0 := time.Now()
		if _, err := st.WriteTo(&buf); err != nil {
			return err
		}
		enc = append(enc, time.Since(t0))
		t0 = time.Now()
		if _, err := dataset.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		dec = append(dec, time.Since(t0))
	}
	mb := float64(buf.Len()) / 1e6
	ms.set("dataset.encode_mb_per_s", mb/medianDur(enc).Seconds(), reps)
	ms.set("dataset.decode_mb_per_s", mb/medianDur(dec).Seconds(), reps)
	return nil
}

// fuseMicroLoop times signals.FuseBlock on the verdict shape a three-vantage
// fleet produces for one suspect block: a sample and a full re-probe per
// vantage, one of them dark.
func fuseMicroLoop(ms *metricSet) {
	verdicts := []signals.VantageVerdict{
		{Vantage: "v0", Resp: 0, Weight: 1},
		{Vantage: "v1", Resp: 21, Weight: 1},
		{Vantage: "v2", Resp: 19, Weight: 1},
		{Vantage: "v0", Resp: 0, Weight: 1, Full: true},
		{Vantage: "v1", Resp: 63, Weight: 1, Full: true},
		{Vantage: "v2", Resp: 63, Weight: 1, Full: true},
	}
	const n = 20000
	ms.set("signals.fuse_ns_per_block", nsPerCall(n, func(i int) {
		resp, _ := signals.FuseBlock(64, 40, verdicts, 2)
		sink += uint64(resp)
	}), n)
}

// blockStateMicroLoop times sim ground-truth evaluation the way the
// coordinator's per-round SetRouted loop calls it.
func blockStateMicroLoop(ms *metricSet, world *sim.Scenario, rounds int) {
	blocks := world.Space.NumBlocks()
	if blocks == 0 {
		return
	}
	if max := world.TL.NumRounds(); rounds > max {
		rounds = max
	}
	n := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		at := world.TL.Time(r)
		for bi := 0; bi < blocks; bi++ {
			sink += uint64(world.BlockStateAt(bi, at).Resp)
			n++
		}
	}
	ms.set("sim.block_state_ns", float64(time.Since(t0))/float64(n), n)
}

// asPrefixes lists every prefix of a world's address space.
func asPrefixes(space *netmodel.Space) []netmodel.Prefix {
	var out []netmodel.Prefix
	for _, as := range space.ASes() {
		out = append(out, as.Prefixes...)
	}
	return out
}
