package faults_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"countrymon/internal/faults"
	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
	"countrymon/internal/scanner"
	"countrymon/internal/simnet"
)

func allUp(rtt time.Duration) simnet.Responder {
	return simnet.ResponderFunc(func(dst netmodel.Addr, at time.Time) simnet.Reply {
		return simnet.Reply{Kind: simnet.EchoReply, RTT: rtt}
	})
}

func scan(t *testing.T, tr scanner.Transport, clock scanner.Clock, cidr string) *scanner.RoundData {
	t.Helper()
	ts, err := scanner.NewTargetSet([]netmodel.Prefix{netmodel.MustParsePrefix(cidr)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := scanner.New(tr, scanner.Config{
		Rate: 0, Seed: 1, Epoch: 1, Clock: clock, Cooldown: 500 * time.Millisecond,
	})
	rd, err := sc.Run(ts)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

func TestInjectedErrorsAreTransient(t *testing.T) {
	if !scanner.IsTransient(&faults.Err{Op: "send"}) {
		t.Error("injected faults must classify as transient")
	}
	if scanner.IsTransient(errors.New("plain")) {
		t.Error("plain errors must not classify as transient")
	}
}

func TestBlackoutWindowSilencesRound(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), allUp(10*time.Millisecond), start)
	// Blackout covering the whole scan.
	tr := faults.NewTransport(net, nil, faults.Profile{
		Windows: []faults.Window{{From: start, To: start.Add(time.Hour), Kind: faults.Blackout}},
	})
	rd := scan(t, tr, tr, "10.0.0.0/24")
	if !rd.Partial {
		t.Error("blacked-out round must be partial")
	}
	if rd.Stats.Valid != 0 {
		t.Errorf("Valid = %d during blackout", rd.Stats.Valid)
	}
	if cov := rd.Coverage(); cov > 0.2 {
		t.Errorf("coverage %v during a full blackout (error budget should abort early)", cov)
	}
	if tr.Counters().SendErrors == 0 {
		t.Error("no injected send errors counted")
	}
}

func TestBlackoutEndsAndServiceRecovers(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), allUp(10*time.Millisecond), start)
	// Blackout already over by the time the scan runs.
	tr := faults.NewTransport(net, nil, faults.Profile{
		Windows: []faults.Window{{From: start.Add(-2 * time.Hour), To: start.Add(-time.Hour), Kind: faults.Blackout}},
	})
	rd := scan(t, tr, tr, "10.0.0.0/24")
	if rd.Partial || rd.Stats.Valid != 256 {
		t.Errorf("recovered transport: partial=%v valid=%d", rd.Partial, rd.Stats.Valid)
	}
}

func TestProbabilisticSendErrorsRecoveredByRetry(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), allUp(10*time.Millisecond), start)
	tr := faults.NewTransport(net, nil, faults.Profile{Seed: 3, SendErrorProb: 0.05})
	rd := scan(t, tr, tr, "10.1.0.0/23")
	// 512 sends at 5% error: the scanner's retries should recover them all.
	if rd.Stats.Valid != 512 {
		t.Errorf("Valid = %d, want 512 (retries should recover 5%% noise)", rd.Stats.Valid)
	}
	if rd.Stats.Retries == 0 {
		t.Error("no retries despite injected send errors")
	}
	if rd.Partial {
		t.Error("recovered round must not be partial")
	}
	c := tr.Counters()
	if c.SendErrors < 5 || c.SendErrors > 100 {
		t.Errorf("injected send errors = %d, want ≈26", c.SendErrors)
	}
}

func TestTruncatedRepliesRejectedNotCrashed(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), allUp(10*time.Millisecond), start)
	tr := faults.NewTransport(net, nil, faults.Profile{Seed: 4, TruncateProb: 0.5})
	rd := scan(t, tr, tr, "10.2.0.0/24")
	c := tr.Counters()
	if c.Truncated == 0 {
		t.Fatal("no replies truncated")
	}
	if rd.Stats.Valid+rd.Stats.Invalid != 256 {
		t.Errorf("valid %d + invalid %d != 256", rd.Stats.Valid, rd.Stats.Invalid)
	}
	if rd.Stats.Invalid == 0 {
		t.Error("truncated replies must be counted invalid")
	}
}

func TestRecvErrorWindowKillsReceivePath(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), allUp(10*time.Millisecond), start)
	tr := faults.NewTransport(net, nil, faults.Profile{
		Windows: []faults.Window{{From: start, To: start.Add(time.Hour), Kind: faults.RecvErrors}},
	})
	rd := scan(t, tr, tr, "10.3.0.0/24")
	if !rd.RecvDead {
		t.Error("persistent receive errors must flag RecvDead")
	}
	if rd.Stats.RecvErrors == 0 {
		t.Error("receive errors not surfaced in stats")
	}
}

func TestFlapAlternates(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	w := faults.Window{From: start, To: start.Add(time.Hour), Kind: faults.Flap, Period: 10 * time.Minute}
	p := faults.Profile{Windows: []faults.Window{w}}
	net := simnet.New(netmodel.MustParseAddr("198.51.100.1"), allUp(time.Millisecond), start.Add(5*time.Minute))
	tr := faults.NewTransport(net, nil, p)
	if err := tr.WritePacket(probe(t, net)); err == nil {
		t.Error("flap on-phase should fail sends")
	}
	net2 := simnet.New(netmodel.MustParseAddr("198.51.100.1"), allUp(time.Millisecond), start.Add(15*time.Minute))
	tr2 := faults.NewTransport(net2, nil, p)
	if err := tr2.WritePacket(probe(t, net2)); err != nil {
		t.Errorf("flap off-phase should pass sends: %v", err)
	}
}

// probe builds one valid outgoing datagram for the transport under test.
func probe(t *testing.T, inner scanner.Transport) []byte {
	t.Helper()
	v := scanner.NewValidator(1, 1, time.Unix(0, 0))
	return v.AppendProbeIPv4(nil, icmp.IPv4Header{
		TTL: 64, Protocol: icmp.ProtoICMP,
		Src: inner.LocalAddr(), Dst: netmodel.MustParseAddr("10.0.0.1"),
	}, time.Unix(0, 0))
}

func TestParseProfile(t *testing.T) {
	base := time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC)
	p, err := faults.ParseProfile("seed=9, senderr=0.01, drop=0.005, trunc=0.02, blackout=24h+8h, flap=48h+12h/30m", base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.SendErrorProb != 0.01 || p.DropProb != 0.005 || p.TruncateProb != 0.02 {
		t.Errorf("scalar fields wrong: %+v", p)
	}
	if len(p.Windows) != 2 {
		t.Fatalf("windows = %d", len(p.Windows))
	}
	b := p.Windows[0]
	if b.Kind != faults.Blackout || !b.From.Equal(base.Add(24*time.Hour)) || !b.To.Equal(base.Add(32*time.Hour)) {
		t.Errorf("blackout window wrong: %+v", b)
	}
	f := p.Windows[1]
	if f.Kind != faults.Flap || f.Period != 30*time.Minute {
		t.Errorf("flap window wrong: %+v", f)
	}

	if _, err := faults.ParseProfile("bogus=1", base); err == nil {
		t.Error("unknown clause accepted")
	}
	if _, err := faults.ParseProfile("senderr=2", base); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := faults.ParseProfile("blackout=oops", base); err == nil {
		t.Error("bad window accepted")
	}
	if _, err := faults.ParseProfile("flap=1h+2h", base); err == nil {
		t.Error("flap without period accepted")
	}
	if p, err := faults.ParseProfile("", base); err != nil || len(p.Windows) != 0 {
		t.Error("empty spec must parse to an empty profile")
	}
}

func TestParseProfileRejections(t *testing.T) {
	base := time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC)
	cases := []struct {
		name, spec, wantErr string
	}{
		{"clause without equals", "blackout", "not key=value"},
		{"bad seed", "seed=abc", "bad seed"},
		{"negative send probability", "senderr=-0.1", `bad probability "-0.1" for senderr`},
		{"negative drop probability", "drop=-1", `bad probability "-1" for drop`},
		{"truncation probability above one", "trunc=1.5", `bad probability "1.5" for trunc`},
		{"unparseable probability", "drop=lots", `bad probability "lots" for drop`},
		{"unknown fault kind", "meltdown=1h+2h", `unknown fault "meltdown"`},
		{"window missing duration", "blackout=1h", "not offset+duration"},
		{"window bad offset", "blackout=soon+2h", "bad window offset"},
		{"window bad duration", "blackout=1h+later", "bad window duration"},
		{"window zero duration", "blackout=1h+0s", "bad window duration"},
		{"window negative duration", "stall=1h+-30m", "bad window duration"},
		{"flap missing period", "flap=1h+2h", "needs offset+dur/period"},
		{"flap bad period", "flap=1h+2h/often", "bad flap period"},
		{"overlapping same-kind windows", "blackout=1h+4h,blackout=3h+2h", "overlapping blackout windows"},
		{"identical windows overlap", "stall=2h+1h,stall=2h+1h", "overlapping stall windows"},
		{"containment is overlap", "recverr=1h+10h,recverr=2h+1h", "overlapping recverr windows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := faults.ParseProfile(tc.spec, base)
			if err == nil {
				t.Fatalf("ParseProfile(%q) accepted, want error containing %q", tc.spec, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseProfile(%q) error %q, want substring %q", tc.spec, err, tc.wantErr)
			}
		})
	}

	// Overlap is only rejected within a kind: adjacent and cross-kind
	// windows coexist.
	for _, ok := range []string{
		"blackout=1h+2h,blackout=3h+2h", // back-to-back: [1h,3h) then [3h,5h)
		"blackout=1h+4h,stall=2h+1h",    // different kinds may overlap
	} {
		if _, err := faults.ParseProfile(ok, base); err != nil {
			t.Errorf("ParseProfile(%q) rejected: %v", ok, err)
		}
	}
}
