package render

import (
	"strings"
	"testing"
	"time"

	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

func testDetection(rounds int) (*signals.Detection, []bool) {
	d := &signals.Detection{Flags: make([]signals.Kind, rounds)}
	missing := make([]bool, rounds)
	for r := 100; r < 120; r++ {
		d.Flags[r] = signals.SignalBGP
	}
	for r := 200; r < 210; r++ {
		d.Flags[r] = signals.SignalIPS
	}
	for r := 300; r < 305; r++ {
		missing[r] = true
	}
	return d, missing
}

func TestStrip(t *testing.T) {
	d, missing := testDetection(400)
	s := Strip(d, missing, 400) // 1:1 mapping
	runes := []rune(s)
	if len(runes) != 400 {
		t.Fatalf("width = %d", len(runes))
	}
	if runes[100] != '█' {
		t.Errorf("BGP round rendered as %q", runes[100])
	}
	if runes[200] != '░' {
		t.Errorf("IPS round rendered as %q", runes[200])
	}
	if runes[302] != ' ' {
		t.Errorf("missing round rendered as %q", runes[302])
	}
	if runes[0] != '·' {
		t.Errorf("up round rendered as %q", runes[0])
	}
}

func TestStripCompression(t *testing.T) {
	d, missing := testDetection(400)
	s := Strip(d, missing, 40)
	runes := []rune(s)
	if len(runes) != 40 {
		t.Fatalf("width = %d", len(runes))
	}
	// The BGP outage at rounds 100-120 lands at columns ~10-11.
	if runes[10] != '█' {
		t.Errorf("compressed BGP column = %q (strip %s)", runes[10], s)
	}
	// Degenerate widths.
	if Strip(d, missing, 0) != "" {
		t.Error("zero width should render empty")
	}
	if got := len([]rune(Strip(d, missing, 10000))); got != 400 {
		t.Errorf("width clamps to rounds, got %d", got)
	}
}

func TestTimeline(t *testing.T) {
	start := time.Date(2022, 3, 2, 22, 0, 0, 0, time.UTC)
	tl := timeline.New(start, start.AddDate(2, 0, 0), 6*time.Hour)
	d := &signals.Detection{Flags: make([]signals.Kind, tl.NumRounds())}
	out := Timeline(tl, []LabeledDetection{
		{Label: "Kherson", Detection: d},
		{Label: "Lviv", Detection: d},
	}, 80)
	if !strings.Contains(out, "Kherson") || !strings.Contains(out, "Lviv") {
		t.Error("labels missing")
	}
	if !strings.Contains(out, "2023") || !strings.Contains(out, "2024") {
		t.Errorf("year axis missing:\n%s", out)
	}
	if !strings.Contains(out, "BGP★") {
		t.Error("legend missing")
	}
}
