// Package render draws the paper's timeline figures as text: per-entity
// outage strips (Figs 8, 11, 25, 28) stacked over a labelled year axis.
// Output is plain UTF-8 suitable for terminals and logs; the experiments and
// the countrymon CLI use it to make the reproduced figures legible rather
// than just tabulated.
package render

import (
	"fmt"
	"strings"
	"time"

	"countrymon/internal/signals"
	"countrymon/internal/timeline"
)

// Strip renders one entity's outage timeline compressed to `width` columns.
// Each column covers NumRounds/width rounds and shows the dominant state:
//
//	'█' BGP★ outage  '▓' FBS■ outage  '░' IPS▲ outage  '·' up  ' ' missing
func Strip(d *signals.Detection, missing []bool, width int) string {
	rounds := len(d.Flags)
	if width <= 0 || rounds == 0 {
		return ""
	}
	if width > rounds {
		width = rounds
	}
	var b strings.Builder
	for col := 0; col < width; col++ {
		lo := col * rounds / width
		hi := (col + 1) * rounds / width
		if hi == lo {
			hi = lo + 1
		}
		var bgp, fbs, ips, up, miss int
		for r := lo; r < hi; r++ {
			switch {
			case missing != nil && missing[r]:
				miss++
			case d.Flags[r].Has(signals.SignalBGP):
				bgp++
			case d.Flags[r].Has(signals.SignalFBS):
				fbs++
			case d.Flags[r].Has(signals.SignalIPS):
				ips++
			default:
				up++
			}
		}
		switch {
		case bgp > 0:
			b.WriteRune('█')
		case fbs > 0:
			b.WriteRune('▓')
		case ips > 0:
			b.WriteRune('░')
		case miss > up:
			b.WriteRune(' ')
		default:
			b.WriteRune('·')
		}
	}
	return b.String()
}

// StripLegend explains the Strip glyphs.
func StripLegend() string {
	return "█ BGP★  ▓ FBS■  ░ IPS▲  · up  (blank) missing"
}

// Timeline renders labelled strips for several entities over a shared
// timeline, with a year axis.
func Timeline(tl *timeline.Timeline, rows []LabeledDetection, width int) string {
	var b strings.Builder
	labelW := 0
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %s\n", labelW, r.Label, Strip(r.Detection, r.Missing, width))
	}
	fmt.Fprintf(&b, "%-*s %s\n", labelW, "", axis(tl, width))
	fmt.Fprintf(&b, "%-*s %s\n", labelW, "", StripLegend())
	return b.String()
}

// LabeledDetection pairs a detection with its display label.
type LabeledDetection struct {
	Label     string
	Detection *signals.Detection
	Missing   []bool
}

// axis marks year boundaries along the compressed width.
func axis(tl *timeline.Timeline, width int) string {
	out := []rune(strings.Repeat("-", width))
	labels := map[int]string{}
	rounds := tl.NumRounds()
	startYear := tl.Start().Year()
	endYear := tl.End().Year()
	for y := startYear + 1; y <= endYear; y++ {
		r := tl.Round(time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC))
		col := r * width / rounds
		if col >= 0 && col < width {
			out[col] = '|'
			labels[col] = fmt.Sprintf("%d", y)
		}
	}
	line := string(out)
	// Lay labels under their tick marks where they fit.
	lab := []rune(strings.Repeat(" ", width))
	for col, text := range labels {
		for i, ch := range text {
			if col+i < width {
				lab[col+i] = ch
			}
		}
	}
	return line + "\n" + strings.TrimRight(string(lab), " ")
}
