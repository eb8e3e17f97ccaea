package trinocular

import (
	"testing"

	"countrymon/internal/sim"
)

var benchResult *Result

// BenchmarkRunnerRun times the Trinocular baseline's campaign over the
// benchmark's analysis_batch world (Scale 0.02, seed 1, six-hourly over three
// years) the way the batch analysis runs it: one probe or a few per tracked
// block and round, each reading the generated store's cell of that round.
func BenchmarkRunnerRun(b *testing.B) {
	sc := sim.MustBuild(sim.Config{Seed: 1, Scale: 0.02})
	st := sc.GenerateStore(nil)
	probe := sc.RecordedProbe(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A run moves its trackers' beliefs: each lap starts from fresh ones.
		b.StopTimer()
		r := NewRunner(st, sc.Space, sc.Representatives, probe)
		b.StartTimer()
		benchResult = r.Run(probe)
	}
}
