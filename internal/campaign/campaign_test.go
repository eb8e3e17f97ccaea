package campaign

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	countrymon "countrymon"
	"countrymon/internal/dataset"
	"countrymon/internal/faults"
	"countrymon/internal/obs"
	"countrymon/internal/par"
	"countrymon/internal/scanner"
	"countrymon/internal/scenario"
)

// testSpec is the standard two-country campaign: synthetic UA and RO models
// splitting the fleet budget evenly over three vantages.
func testSpec(t *testing.T, rounds int) *Spec {
	t.Helper()
	s := &Spec{
		Countries: []CountrySpec{
			{Code: "UA", Name: "Ukraine"},
			{Code: "RO", Name: "Romania"},
		},
		Vantages: 3,
		Rounds:   rounds,
		Interval: 2 * time.Hour,
		Start:    time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		Rate:     2000,
		Seed:     9,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func runCoordinator(t *testing.T, spec *Spec) *Coordinator {
	t.Helper()
	co, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return co
}

func storeBytes(t *testing.T, mon *countrymon.Monitor) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := mon.Store().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// soloCountry runs one country alone on its own three-vantage fleet with
// the coordinator's exact per-country parameters: the same world, the same
// transports (passed through wrap, Options.WrapTransport's shape, when it is
// non-nil), the same seed and — crucially — the budget share's scan rate
// (pacing advances virtual time, so the rate shapes the observations).
func soloCountry(t *testing.T, spec *Spec, code string, wrap func(country, vantage string, t scanner.Transport) scanner.Transport) *countrymon.Monitor {
	t.Helper()
	var cs *CountrySpec
	for i := range spec.Countries {
		if spec.Countries[i].Code == code {
			cs = &spec.Countries[i]
		}
	}
	if cs == nil {
		t.Fatalf("country %s not in spec", code)
	}
	world, err := spec.World(cs)
	if err != nil {
		t.Fatal(err)
	}
	space := world.Space
	var targets []countrymon.Prefix
	for _, as := range space.ASes() {
		targets = append(targets, as.Prefixes...)
	}
	origins := make(map[countrymon.BlockID]countrymon.ASN)
	for _, blk := range space.Blocks() {
		origins[blk] = space.OriginOf(blk)
	}
	// A pool of its own with one campaign, scanning at the country's rate
	// and seed: the fleet cmd/countrymon's -vantages builds.
	sup, err := NewFleet(spec.Vantages, 0, spec.CountryRate(code), cs.Seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := JoinCountry(sup, code, world, targets, 0, 0, wrap)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := countrymon.New(countrymon.Options{
		Fleet:    camp,
		Clock:    scanner.NewVirtualClock(spec.Start),
		Targets:  targets,
		Start:    spec.Start,
		Interval: spec.Interval,
		Rounds:   spec.Rounds,
		Rate:     spec.CountryRate(code),
		Seed:     cs.Seed,
		Origins:  origins,
		Country:  code,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := space.Blocks()
	for mon.NextRound() {
		r := mon.Round()
		at := world.TL.Time(r)
		for bi, blk := range blocks {
			mon.SetRouted(blk, r, world.BlockStateAt(bi, at).Routed, origins[blk])
		}
		if _, err := mon.ScanRound(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	return mon
}

// blackout returns an Options.WrapTransport that blacks out every vantage of
// country over the given rounds of spec's timeline, as a world's scripted
// vantage outage does, and leaves every other transport as it is.
func blackout(spec *Spec, country string, rounds ...int) func(string, string, scanner.Transport) scanner.Transport {
	var prof faults.Profile
	for _, r := range rounds {
		from := spec.Start.Add(time.Duration(r) * spec.Interval)
		prof.Windows = append(prof.Windows, faults.Window{From: from, To: from.Add(spec.Interval), Kind: faults.Blackout})
	}
	return func(c, _ string, t scanner.Transport) scanner.Transport {
		if c != country {
			return t
		}
		return faults.NewTransport(t, nil, prof)
	}
}

// TestCampaignTwoCountryDeterminism is the coordinator's core guarantee:
// each country of a two-country campaign produces a store byte-identical to
// the same country run solo (same seeds, no fleet contention), and the
// coordinated run itself is byte-identical at any worker count.
func TestCampaignTwoCountryDeterminism(t *testing.T) {
	spec := testSpec(t, 48)
	co := runCoordinator(t, spec)

	got := map[string][]byte{}
	for _, c := range co.Countries() {
		got[c.Code] = storeBytes(t, c.Monitor)
	}

	// Solo equivalence, per country.
	for _, cs := range spec.Countries {
		code := cs.Code
		solo := storeBytes(t, soloCountry(t, spec, code, nil))
		if !bytes.Equal(got[code], solo) {
			t.Errorf("country %s: coordinated store differs from solo run (%d vs %d bytes)",
				code, len(got[code]), len(solo))
		}
	}

	// Worker invariance: the whole coordinated campaign, re-run under
	// pinned pool widths, must reproduce byte for byte.
	for _, workers := range []string{"1", "8"} {
		t.Setenv(par.EnvWorkers, workers)
		re := runCoordinator(t, testSpec(t, 48))
		for _, c := range re.Countries() {
			if !bytes.Equal(got[c.Code], storeBytes(t, c.Monitor)) {
				t.Errorf("country %s: store differs at %s=%s", c.Code, par.EnvWorkers, workers)
			}
		}
	}
}

// TestCampaignCountryScansWithOwnSeed: a coordinated country probes in the
// order its own CountrySpec.Seed sets, not the pool's. Every scan goes
// through a seeded drop profile that loses whichever probes fall on its
// draws, so the stored counts depend on the probe order, and a country's
// store equals the solo run at its seed only if it scanned with that seed.
func TestCampaignCountryScansWithOwnSeed(t *testing.T) {
	drop := func(country, vantage string, tr scanner.Transport) scanner.Transport {
		return faults.NewTransport(tr, nil, faults.Profile{Seed: 5, DropProb: 0.3})
	}
	spec := testSpec(t, 6)
	co, err := New(spec, Options{WrapTransport: drop})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range co.Countries() {
		if c.Seed == spec.Seed {
			t.Fatalf("country %s shares the pool's seed %d: the test cannot tell them apart", c.Code, c.Seed)
		}
		if !bytes.Equal(storeBytes(t, c.Monitor), storeBytes(t, soloCountry(t, spec, c.Code, drop))) {
			t.Errorf("country %s: coordinated store differs from the solo run at its seed %d", c.Code, c.Seed)
		}
	}
}

// TestCampaignRoundCountersPerCountry: each Monitor of a coordinated
// campaign counts its rounds under its own country, so a round only UA's
// wire is dark for is UA's missing round, not RO's, and each country's
// series add up to the rounds it handled. Its summaries keep apart too:
// coverage is observed for every round a country handled, the round
// duration for every round it scanned. UA's dark rounds are fleet
// self-outages on the shared three-vantage fleet, which quarantine nobody,
// so RO keeps every round.
func TestCampaignRoundCountersPerCountry(t *testing.T) {
	spec := testSpec(t, 8)
	reg := obs.NewRegistry()
	co, err := New(spec, Options{Registry: reg, WrapTransport: blackout(spec, "UA", 2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep := co.Supervisor().Report(); spec.Vantages != 3 || rep.SelfOutages != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("%d vantages, fleet report %+v: want 3 vantages, 2 self-outages and nobody quarantined", spec.Vantages, rep)
	}

	var text bytes.Buffer
	reg.WritePrometheus(&text)
	series := make(map[string]string) // name{labels} → value
	for _, line := range strings.Split(text.String(), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			series[name] = value
		}
	}
	for code, want := range map[string]map[string]string{
		"UA": {"scanned": "6", "salvaged": "0", "missing": "2"},
		"RO": {"scanned": "8", "salvaged": "0", "missing": "0"},
	} {
		for outcome, n := range want {
			key := `monitor_rounds_total{country="` + code + `",outcome="` + outcome + `"}`
			if got := series[key]; got != n {
				t.Errorf("%s = %q, want %s", key, got, n)
			}
		}
		label := `{country="` + code + `"}`
		for name, n := range map[string]string{
			"monitor_last_round":                   "7",
			"monitor_round_coverage_count":         "8",
			"monitor_round_duration_seconds_count": want["scanned"],
		} {
			if got := series[name+label]; got != n {
				t.Errorf("%s%s = %q, want %s", name, label, got, n)
			}
		}
	}
}

// TestCampaignCancelOnScriptedMissingRound: a round UA's wire is dark for
// goes through Monitor.Step like any other, so a context cancelled before
// it stops the country there — round not taken, progress checkpointed —
// instead of the coordinator recording it missing on its own.
func TestCampaignCancelOnScriptedMissingRound(t *testing.T) {
	spec := testSpec(t, 6)
	spec.CheckpointRoot = t.TempDir()
	co, err := New(spec, Options{WrapTransport: blackout(spec, "UA", 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ua := co.Country("UA")

	ctx, cancel := context.WithCancel(context.Background())
	for co.Round() < 2 {
		if err := co.StepRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := co.StepRound(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("StepRound after cancel = %v, want context.Canceled", err)
	}
	if got := ua.Monitor.Round(); got != 2 {
		t.Fatalf("UA at round %d after a cancelled scripted-missing round, want 2", got)
	}
	st, err := dataset.Load(filepath.Join(spec.CheckpointRoot, "UA.ckpt"))
	if err != nil {
		t.Fatalf("no checkpoint before return: %v", err)
	}
	if got := st.NextUndone(); got != 2 {
		t.Fatalf("checkpoint resumes at round %d, want 2", got)
	}

	// Uncancelled, the same round is scanned and recorded missing.
	if err := co.StepRound(context.Background()); err != nil {
		t.Fatal(err)
	}
	if store := ua.Monitor.Store(); !store.Missing(2) || store.Coverage(2) != 0 {
		t.Fatalf("round 2: missing %v coverage %v, want missing at zero coverage", store.Missing(2), store.Coverage(2))
	}
}

// TestCampaignBudgetSplit pins the rate arithmetic the solo-equivalence
// test depends on: shares scale the fleet budget, and over-subscription is
// rejected at Join time.
func TestCampaignBudgetSplit(t *testing.T) {
	spec := testSpec(t, 8)
	if r := spec.CountryRate("UA"); r != 1000 {
		t.Errorf("UA rate = %d, want 1000", r)
	}
	over := testSpec(t, 8)
	over.Countries[0].Share = 0.8
	over.Countries[1].Share = 0.8
	if err := over.Validate(); err == nil {
		t.Error("shares summing to 1.6 validated")
	}
}

func TestCampaignSpecParse(t *testing.T) {
	spec, err := Parse([]byte(`{
		"countries": [
			{"code": "UA", "name": "Ukraine", "share": 0.6},
			{"code": "RO"}
		],
		"vantages": 4,
		"rounds": 24,
		"interval": "1h",
		"start": "2024-06-01T00:00:00Z",
		"rate": 4000,
		"seed": 11
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Vantages != 4 || spec.Rounds != 24 || spec.Interval != time.Hour {
		t.Errorf("parsed %d vantages, %d rounds, %v interval", spec.Vantages, spec.Rounds, spec.Interval)
	}
	// RO inherits the unclaimed share and a derived, non-zero seed.
	if got := spec.Countries[1].Share; got < 0.399 || got > 0.401 {
		t.Errorf("RO share = %v, want 0.4", got)
	}
	if spec.Countries[1].Seed == 0 {
		t.Error("RO seed not derived")
	}
	if r := spec.CountryRate("UA"); r != 2400 {
		t.Errorf("UA rate = %d, want 2400", r)
	}

	for name, doc := range map[string]string{
		"unknown field": `{"countries": [{"code": "UA"}], "bogus": 1}`,
		"bad code":      `{"countries": [{"code": "Ukraine"}]}`,
		"dup country":   `{"countries": [{"code": "UA"}, {"code": "UA"}]}`,
		"no countries":  `{"countries": []}`,
		"bad share":     `{"countries": [{"code": "UA", "share": 1.5}]}`,
	} {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
}

// TestCampaignModelErrors pins the model-reference failure modes.
func TestCampaignModelErrors(t *testing.T) {
	spec := testSpec(t, 8)

	war := spec.Countries[1] // RO
	war.Model = "war"
	if _, err := spec.World(&war); err == nil {
		t.Error("war model accepted for RO")
	}
	missing := spec.Countries[0]
	missing.Model = "no-such-scenario"
	if _, err := spec.World(&missing); err == nil {
		t.Error("unknown scenario model accepted")
	}
}

// TestCampaignModelFile: a country's model may be a scenario-DSL file at any
// path, with or without a .json suffix, exactly as experiments -scorecard
// reads one.
func TestCampaignModelFile(t *testing.T) {
	data, err := scenario.Source("ixp-failover")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ixp-copy")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code := sc.Country
	if code == "" {
		code = "UA"
	}
	spec := &Spec{
		Countries: []CountrySpec{{Code: code, Model: path}},
		Rounds:    sc.Rounds(), Interval: sc.Interval, Start: sc.Start,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.World(&spec.Countries[0]); err != nil {
		t.Fatalf("model %s: %v", path, err)
	}
}

// TestCampaignScenarioVantageWindows: a country whose model is a scenario
// scans through the scenario's vantage windows, so the fleet measures them
// as the scorecard harness does. ixp-failover is dark for rounds 180–182,
// which are recorded missing, and degraded to 0.9 over rounds 410–412,
// which are salvaged at the coverage the scan reached. Every other round is
// scanned in full. The fleet is the spec's default, three vantages that
// split the targets at the default rate budget, so each shard's scan is
// shorter than one vantage's scan of them all would be.
func TestCampaignScenarioVantageWindows(t *testing.T) {
	sc, err := scenario.Open("ixp-failover")
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Countries: []CountrySpec{{Code: "UA", Model: "ixp-failover"}},
		Rounds:    sc.Rounds(), Interval: sc.Interval, Start: sc.Start,
	}
	co := runCoordinator(t, spec)
	if spec.Vantages != 3 {
		t.Fatalf("the spec's default fleet is %d vantages, want 3", spec.Vantages)
	}
	defer co.Close()
	st := co.Country("UA").Monitor.Store()
	for r := range spec.Rounds {
		missing, cov := st.Missing(r), st.Coverage(r)
		switch {
		case r >= 180 && r <= 182:
			if !missing {
				t.Errorf("round %d: not missing (coverage %v)", r, cov)
			}
		case r >= 410 && r <= 412:
			if missing || cov >= 1 || cov < 0.9 {
				t.Errorf("round %d: missing %v coverage %v, want salvaged at 0.9 or more", r, missing, cov)
			}
		case missing || cov != 1:
			t.Errorf("round %d: missing %v coverage %v, want a full scan", r, missing, cov)
		}
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (string, string, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("ETag"), resp.StatusCode
}

// TestCampaignAliasRouteParity proves the legacy unprefixed routes are true
// aliases of the default country's prefixed routes: byte-identical bodies
// AND identical ETags, because both spellings hit the same handler and the
// same response cache.
func TestCampaignAliasRouteParity(t *testing.T) {
	spec := testSpec(t, 24)
	co := runCoordinator(t, spec)
	for _, c := range co.Countries() {
		if err := c.Store.AdvanceTo(spec.Rounds); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(co.Router())
	defer srv.Close()

	def := co.Countries()[0]
	asn := strconv.FormatUint(uint64(def.World.Space.ASes()[0].ASN), 10)
	paths := []string{
		"/v1/entities",
		"/v1/entities?type=asn",
		"/v1/series?entity=asn/" + asn,
		"/v1/series?entity=country/UA&limit=8",
		"/v1/outages?entity=asn/" + asn,
		"/v1/outages?entity=country/UA",
	}
	for _, p := range paths {
		legacyBody, legacyTag, legacyCode := get(t, srv, p)
		aliasBody, aliasTag, aliasCode := get(t, srv, "/v1/countries/UA"+strings.TrimPrefix(p, "/v1"))
		if legacyCode != http.StatusOK || aliasCode != http.StatusOK {
			t.Errorf("%s: status %d / %d", p, legacyCode, aliasCode)
			continue
		}
		if legacyBody != aliasBody {
			t.Errorf("%s: legacy and prefixed bodies differ", p)
		}
		if legacyTag == "" || legacyTag != aliasTag {
			t.Errorf("%s: ETag %q vs %q", p, legacyTag, aliasTag)
		}
	}

	// The same series for the other country must be served from its own
	// store: RO's first AS differs from UA's.
	roASN := strconv.FormatUint(uint64(co.Country("RO").World.Space.ASes()[0].ASN), 10)
	roBody, _, roCode := get(t, srv, "/v1/countries/RO/series?entity=asn/"+roASN)
	if roCode != http.StatusOK {
		t.Fatalf("RO series status %d", roCode)
	}
	uaBody, _, _ := get(t, srv, "/v1/series?entity=asn/"+asn)
	if roBody == uaBody {
		t.Error("RO series identical to UA series")
	}

	// Listing and unknown-country handling.
	listing, _, code := get(t, srv, "/v1/countries")
	if code != http.StatusOK {
		t.Fatalf("/v1/countries status %d", code)
	}
	for _, want := range []string{`"default":"UA"`, `"code":"RO"`, `"count":2`} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %s: %s", want, listing)
		}
	}
	if _, _, code := get(t, srv, "/v1/countries/XX/series?entity=asn/1"); code != http.StatusNotFound {
		t.Errorf("unknown country status %d, want 404", code)
	}
	if body, _, code := get(t, srv, "/v1/countries/RO"); code != http.StatusOK || !strings.Contains(body, `"watermark":24`) {
		t.Errorf("RO descriptor: status %d body %s", code, body)
	}
}
