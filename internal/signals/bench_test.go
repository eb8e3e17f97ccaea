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
	es := &EntitySeries{
		Name: "bench", TL: tl,
		BGP:           make([]float32, rounds),
		FBS:           make([]float32, rounds),
		IPS:           make([]float32, rounds),
		IPSValidMonth: make([]bool, tl.NumMonths()),
		Missing:       timeline.MissingRounds(tl, timeline.DefaultVantageOutages()),
	}
	for r := 0; r < rounds; r++ {
		es.BGP[r], es.FBS[r], es.IPS[r] = 40, 32, 2100
		if r%1000 >= 990 { // a 20 h outage every 83 days
			es.BGP[r], es.FBS[r], es.IPS[r] = 12, 9, 600
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
