package core

import (
	"testing"

	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// BenchmarkControllerDecision measures one online control step (sensor
// read + threshold logic + frequency command) — the paper's runtime
// overhead per monitoring period.
func BenchmarkControllerDecision(b *testing.B) {
	// A no-op machine is enough to measure the decision path.
	m := &stubMachine{freq: 2000, temp: 86}
	c := NewController(DefaultParams())
	if err := c.Start(m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Act(m); err != nil {
			b.Fatal(err)
		}
	}
}

// stubMachine is a sim.Machine on exynos5422 whose big sensor reads temp
// and whose clusters run at freq; it counts SetClusterFreqMHz calls.
type stubMachine struct {
	freq      int
	temp      float64
	throttled bool
	calls     int
}

func (s *stubMachine) TimeS() float64             { return 0 }
func (s *stubMachine) Platform() *soc.Platform    { return exynosOnce() }
func (s *stubMachine) SensorC(string) float64     { return s.temp }
func (s *stubMachine) ClusterFreqMHz(string) int  { return s.freq }
func (s *stubMachine) ClusterUtil(string) float64 { return 1 }
func (s *stubMachine) Throttled() bool            { return s.throttled }
func (s *stubMachine) SetClusterFreqMHz(_ string, f int) error {
	s.freq = f
	s.calls++
	return nil
}

var exynosCache *soc.Platform

func exynosOnce() *soc.Platform {
	if exynosCache == nil {
		exynosCache = soc.Exynos5422()
	}
	return exynosCache
}

// BenchmarkPredictM measures one stored-model evaluation (the §V.D
// runtime lookup).
func BenchmarkPredictM(b *testing.B) {
	mg, err := NewManager(soc.Exynos5422(), thermal.Exynos5422Network(), DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	am, err := mg.Profile(workload.Covariance())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := am.PredictM(85, 35); err != nil {
			b.Fatal(err)
		}
	}
}
