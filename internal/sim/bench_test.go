package sim_test

import (
	"testing"

	"countrymon/internal/dataset"
	"countrymon/internal/sim"
)

// The benchmark's analysis_batch world: Scale 0.02 on the default six-hourly
// three-year timeline, seed 1.
var benchWorld = sim.Config{Seed: 1, Scale: 0.02}

var (
	benchScenario *sim.Scenario
	benchStore    *dataset.Store
)

// BenchmarkBuild times world construction, event index included
// (analysis_batch's setup_s and sim.world_build_s).
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchScenario = sim.MustBuild(benchWorld)
	}
}

// BenchmarkGenerateStore times the fast generator: every block's ground truth
// at every round of the campaign.
func BenchmarkGenerateStore(b *testing.B) {
	s := sim.MustBuild(benchWorld)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStore = s.GenerateStore(nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Space.NumBlocks()*s.TL.NumRounds()), "ns/state")
}
