package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"countrymon/internal/netmodel"
)

const compileDoc = `{
  "name": "c",
  "seed": 7,
  "start": "2023-03-01T00:00:00Z",
  "interval": "4h",
  "days": 40,
  "ases": [
    {"asn": 64500, "name": "A", "region": "Kyiv", "blocks": 4, "density": 50, "resp_rate": 0.8},
    {"asn": 64501, "name": "B", "region": "Lviv", "blocks": 3, "density": 50, "resp_rate": 0.8}
  ],
  "events": [
    {"name": "full", "at": "30d", "duration": "1d", "effect": "silent", "ases": [64500]},
    {"name": "partial", "at": "34d", "duration": "1d", "effect": "ips_drop", "magnitude": 0.5, "block_pct": 50, "regions": ["Lviv"]}
  ],
  "power": {"strikes": [{"day": 20, "days": 2, "hours": 10, "regions": ["Kyiv"]}]},
  "missing": [
    {"at": "10d", "duration": "8h", "coverage": 0},
    {"at": "12d", "duration": "8h", "coverage": 0.9}
  ],
  "score": {"ases": [64500, 64501]}
}`

func compileTestSpec(t *testing.T) *Compiled {
	t.Helper()
	spec, err := Parse([]byte(compileDoc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileAddressPlan(t *testing.T) {
	c := compileTestSpec(t)
	space := c.Sim.Space
	if space.NumBlocks() != 7 {
		t.Fatalf("blocks = %d, want 7", space.NumBlocks())
	}
	// Blocks carve sequentially from the pool: first AS owns the first four.
	blocks := space.Blocks()
	if blocks[0] != poolBase || blocks[6] != poolBase+6 {
		t.Fatalf("pool carving broken: %v..%v", blocks[0], blocks[6])
	}
	for i, blk := range blocks {
		want := netmodel.ASN(64500)
		if i >= 4 {
			want = 64501
		}
		if got := space.OriginOf(blk); got != want {
			t.Fatalf("block %v origin = %d, want %d", blk, got, want)
		}
	}
	if c.Sim.TL.NumRounds() != 240 {
		t.Fatalf("rounds = %d", c.Sim.TL.NumRounds())
	}
}

func TestCompileDeterminism(t *testing.T) {
	a := compileTestSpec(t)
	b := compileTestSpec(t)
	start := a.Spec.Start
	for bi := range a.Sim.Space.Blocks() {
		for _, at := range []time.Time{
			start.Add(30*24*time.Hour + 2*time.Hour),
			start.Add(34*24*time.Hour + 2*time.Hour),
			start.Add(20*24*time.Hour + 8*time.Hour),
		} {
			sa, sb := a.Sim.BlockStateAt(bi, at), b.Sim.BlockStateAt(bi, at)
			if sa != sb {
				t.Fatalf("block %d at %v: %+v vs %+v", bi, at, sa, sb)
			}
		}
	}
	// A different seed produces different trait draws somewhere.
	spec2, err := Parse([]byte(compileDoc))
	if err != nil {
		t.Fatal(err)
	}
	spec2.Seed = 8
	c2, err := spec2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	at := start.Add(34*24*time.Hour + 2*time.Hour)
	for bi := range a.Sim.Space.Blocks() {
		if a.Sim.BlockStateAt(bi, at) != c2.Sim.BlockStateAt(bi, at) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seed change left every block state identical")
	}
}

func TestCompileEffects(t *testing.T) {
	c := compileTestSpec(t)
	start := c.Spec.Start
	space := c.Sim.Space

	// The full-scope silent event kills every 64500 block.
	during := start.Add(30*24*time.Hour + 2*time.Hour)
	before := start.Add(29 * 24 * time.Hour)
	for bi, blk := range space.Blocks() {
		if space.OriginOf(blk) != 64500 {
			continue
		}
		if st := c.Sim.BlockStateAt(bi, during); st.Resp != 0 {
			t.Fatalf("block %v responds (%d) during silent event", blk, st.Resp)
		}
		if st := c.Sim.BlockStateAt(bi, before); st.Resp == 0 {
			t.Fatalf("block %v dead before the event", blk)
		}
	}

	// The 50% partial event hits a strict, non-empty subset of 64501 blocks.
	evs := c.Sim.Events()
	var partialBlocks []netmodel.BlockID
	for _, ev := range evs {
		if ev.Name == "partial" {
			if len(ev.ASNs) != 0 || len(ev.Regions) != 0 {
				t.Fatalf("partial event kept broad scope: %+v", ev)
			}
			partialBlocks = ev.Blocks
		}
	}
	if len(partialBlocks) == 0 || len(partialBlocks) >= 3 {
		t.Fatalf("partial subset = %d of 3 blocks", len(partialBlocks))
	}
	for _, blk := range partialBlocks {
		if space.OriginOf(blk) != 64501 {
			t.Fatalf("subset block %v outside scoped AS", blk)
		}
	}

	// Power strike shows up in the schedule, on the scripted region only.
	if got := c.Sim.Power.Hours(20, netmodel.Kyiv); got != 10 {
		t.Fatalf("strike hours = %g", got)
	}
	if got := c.Sim.Power.Hours(20, netmodel.Lviv); got != 0 {
		t.Fatalf("unscripted region has %g outage hours", got)
	}

	// Vantage plan: full-outage window in the missing mask, degraded window
	// in the coverage map, and the two never overlap.
	wantMissing := []int{60, 61} // 10d..10d8h at 4h rounds
	for _, r := range wantMissing {
		if !c.Sim.Missing[r] {
			t.Fatalf("round %d not missing", r)
		}
	}
	if c.Sim.Missing[62] {
		t.Fatal("missing window too wide")
	}
	if cov := c.Sim.Degraded[72]; cov != 0.9 { // 12d
		t.Fatalf("degraded[72] = %g", cov)
	}
	for r := range c.Sim.Degraded {
		if c.Sim.Missing[r] {
			t.Fatalf("round %d both missing and degraded", r)
		}
	}
}

func TestCompileTruthWindows(t *testing.T) {
	c := compileTestSpec(t)
	byEntity := map[string][]TruthWindow{}
	for _, w := range c.Truth {
		byEntity[w.Entity] = append(byEntity[w.Entity], w)
	}
	// 64500: the silent event plus the power strike on its home region.
	if got := len(byEntity[ASEntity(64500)]); got != 2 {
		t.Fatalf("as:64500 truth windows = %d, want 2", got)
	}
	// 64501: the region-scoped partial event.
	if got := len(byEntity[ASEntity(64501)]); got != 1 {
		t.Fatalf("as:64501 truth windows = %d, want 1", got)
	}
	// The region-scoped event also labels the region itself; the strike
	// labels its region.
	if got := len(byEntity[RegionEntity(netmodel.Lviv)]); got != 1 {
		t.Fatalf("region:Lviv truth windows = %d, want 1", got)
	}
	if got := len(byEntity[RegionEntity(netmodel.Kyiv)]); got != 1 {
		t.Fatalf("region:Kyiv truth windows = %d, want 1", got)
	}
	for _, w := range c.Truth {
		if w.Benign {
			t.Fatalf("unexpected benign window %+v", w)
		}
		if !w.From.Before(w.To) {
			t.Fatalf("empty truth window %+v", w)
		}
	}
}

func TestCompileLibrary(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("library has %d scenarios, want >= 5", len(names))
	}
	for _, name := range names {
		spec, err := Open(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("%s: file name and scenario name disagree (%q)", name, spec.Name)
		}
		c, err := spec.Compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outages := 0
		for _, w := range c.Truth {
			if !w.Benign {
				outages++
			}
		}
		if outages == 0 {
			t.Errorf("%s: no labeled outage windows — recall is vacuous", name)
		}
	}
}

// TestOpenNameOrPath: Open reads a library name first and then any file,
// whatever its suffix, and names both when it finds neither.
func TestOpenNameOrPath(t *testing.T) {
	data, err := Source("ixp-failover")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ixp-copy")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	byName, err := Open("ixp-failover")
	if err != nil {
		t.Fatal(err)
	}
	byPath, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byName, byPath) {
		t.Errorf("Open(%q) and Open of the same bytes at %s differ", "ixp-failover", path)
	}
	missing := filepath.Join(t.TempDir(), "no-such-scenario")
	if _, err := Open(missing); err == nil || !strings.Contains(err.Error(), "names no library scenario and no readable file") {
		t.Errorf("Open(%q) = %v, want an error naming both places it looked", missing, err)
	}
}
