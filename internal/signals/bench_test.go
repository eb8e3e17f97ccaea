package signals

import (
	"testing"

	"countrymon/internal/timeline"
)

// BenchmarkDetect is one re-detect at the paper's size: the full three-year
// bi-hourly timeline with its vantage outages, the seven-day window, and a
// 20 h dip every 83 days.
func BenchmarkDetect(b *testing.B) {
	tl := timeline.Default()
	rounds := tl.NumRounds()
	es := NewSeries("bench", tl, timeline.MissingRounds(tl, timeline.DefaultVantageOutages()))
	for r := 0; r < rounds; r++ {
		es.BGP.Set(r, 40)
		es.FBS.Set(r, 32)
		es.IPS.Set(r, 2100)
		if r%1000 >= 990 { // a 20 h outage every 83 days
			es.BGP.Set(r, 12)
			es.FBS.Set(r, 9)
			es.IPS.Set(r, 600)
		}
	}
	for m := range es.IPSValidMonth {
		es.IPSValidMonth[m] = true
	}
	cfg := ASConfig()
	cfg.WindowRounds = 84
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDetection = Detect(es, cfg)
	}
}

var benchDetection *Detection
