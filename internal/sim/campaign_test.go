package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"teem/internal/mapping"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

func campaignConfig() CampaignConfig {
	return CampaignConfig{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
	}
}

func job(app *workload.App) Job {
	return Job{
		App:  app,
		Map:  mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part: mapping.Partition{Num: 4, Den: 8},
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := RunCampaign(CampaignConfig{}, []Job{job(workload.Covariance())}); err == nil {
		t.Error("campaign without platform should error")
	}
	if _, err := RunCampaign(campaignConfig(), nil); err == nil {
		t.Error("empty campaign should error")
	}
	cc := campaignConfig()
	cc.GapS = -1
	if _, err := RunCampaign(cc, []Job{job(workload.Covariance())}); err == nil {
		t.Error("negative gap should error")
	}
}

// RunCampaign checks every job and the gap before any job runs. A job
// without an App used to panic while its error was formatted, an
// infinite gap cooled the chip forever and a NaN gap silently meant "no
// gap". Each call runs in a goroutine with a deadline, so a hang fails
// the test instead of stalling it.
func TestCampaignRejectsBadJobsAndGaps(t *testing.T) {
	cv := job(workload.Covariance())
	cases := []struct {
		name        string
		gapS        float64
		independent bool
		jobs        []Job
		want        string
	}{
		{"nil App", 0, false, []Job{cv, {}}, "job 1"},
		{"nil App independent", 0, true, []Job{{}, cv}, "job 0"},
		{"GapS +Inf", math.Inf(1), false, []Job{cv, cv}, "GapS"},
		{"GapS NaN", math.NaN(), false, []Job{cv, cv}, "GapS"},
		{"GapS -Inf", math.Inf(-1), false, []Job{cv, cv}, "GapS"},
		{"GapS -1", -1, false, []Job{cv, cv}, "GapS"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cc := campaignConfig()
			cc.GapS = c.gapS
			cc.Independent = c.independent
			cc.Workers = 1
			type outcome struct {
				err   error
				panic any
			}
			done := make(chan outcome, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- outcome{panic: r}
					}
				}()
				_, err := RunCampaign(cc, c.jobs)
				done <- outcome{err: err}
			}()
			select {
			case o := <-done:
				if o.panic != nil {
					t.Fatalf("RunCampaign panicked: %v", o.panic)
				}
				if o.err == nil || !strings.Contains(o.err.Error(), c.want) {
					t.Errorf("got %v, want an error naming %q", o.err, c.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RunCampaign still running after 10 s")
			}
		})
	}
}

// Thermal carry-over: the second identical job starts hotter and so runs
// hotter on average than the first when unmanaged.
func TestCampaignThermalCarryOver(t *testing.T) {
	jobs := []Job{job(workload.Covariance()), job(workload.Covariance())}
	res, err := RunCampaign(campaignConfig(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("got %d job results", len(res.Jobs))
	}
	if res.Jobs[1].AvgTempC <= res.Jobs[0].AvgTempC {
		t.Errorf("second job avg %.1f should exceed first %.1f (carry-over)",
			res.Jobs[1].AvgTempC, res.Jobs[0].AvgTempC)
	}
	if res.TotalTimeS <= 0 || res.TotalEnergyJ <= 0 {
		t.Error("totals not aggregated")
	}
	if res.PeakTempC < res.Jobs[0].PeakTempC || res.PeakTempC < res.Jobs[1].PeakTempC {
		t.Error("campaign peak below a job peak")
	}
	if len(res.FinalTempsC) != 4 {
		t.Errorf("final temps %v", res.FinalTempsC)
	}
}

// An idle gap between jobs cools the chip: with a long gap the second job
// starts cooler than with no gap.
func TestCampaignGapCools(t *testing.T) {
	jobs := []Job{job(workload.Covariance()), job(workload.Covariance())}

	noGap, err := RunCampaign(campaignConfig(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	cc := campaignConfig()
	cc.GapS = 60
	gap, err := RunCampaign(cc, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if gap.Jobs[1].AvgTempC >= noGap.Jobs[1].AvgTempC {
		t.Errorf("gap run avg %.1f should be cooler than back-to-back %.1f",
			gap.Jobs[1].AvgTempC, noGap.Jobs[1].AvgTempC)
	}
}

// A mixed campaign under TEEM control keeps every job inside the
// regulation band despite the carry-over.
func TestCampaignRegulated(t *testing.T) {
	mk := func(app *workload.App) Job {
		j := job(app)
		j.Governor = &floorGov{}
		return j
	}
	jobs := []Job{mk(workload.Covariance()), mk(workload.Syrk()), mk(workload.Mvt())}
	res, err := RunCampaign(campaignConfig(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range res.Jobs {
		if jr.ThrottleEvents != 0 {
			t.Errorf("job %d tripped the TMU under regulation", i)
		}
	}
}

// Independent campaigns reject idle gaps: with no carried state there is
// nothing to cool.
func TestCampaignIndependentRejectsGap(t *testing.T) {
	cc := campaignConfig()
	cc.Independent = true
	cc.GapS = 2
	if _, err := RunCampaign(cc, []Job{job(workload.Covariance())}); err == nil {
		t.Error("independent campaign with a gap should error")
	}
}

// Sharing one stateful governor instance across parallel jobs is a data
// race; the scheduler rejects pointer-identical reuse up front. Sharing
// a value-typed (stateless) governor is fine.
func TestCampaignIndependentRejectsSharedGovernor(t *testing.T) {
	cc := campaignConfig()
	cc.Independent = true

	shared := &floorGov2{}
	j1, j2 := job(workload.Covariance()), job(workload.Syrk())
	j1.Governor, j2.Governor = shared, shared
	if _, err := RunCampaign(cc, []Job{j1, j2}); err == nil {
		t.Error("shared pointer governor across independent jobs should error")
	}

	j1.Governor, j2.Governor = &floorGov2{}, &floorGov2{}
	if _, err := RunCampaign(cc, []Job{j1, j2}); err != nil {
		t.Errorf("distinct governor instances should run: %v", err)
	}

	// Value-typed governors are boxed immutably — sharing is safe.
	val := floorGov{}
	j1.Governor, j2.Governor = val, val
	if _, err := RunCampaign(cc, []Job{j1, j2}); err != nil {
		t.Errorf("shared value-typed governor should run: %v", err)
	}
}

// floorGov2 is a pointer-receiver twin of floorGov so the shared-governor
// guard has a stateful-looking instance to reject.
type floorGov2 struct{ acts int }

func (*floorGov2) Name() string     { return "floor2" }
func (*floorGov2) PeriodS() float64 { return 0.5 }
func (g *floorGov2) Start(m Machine) error {
	return floorGov{}.Start(m)
}
func (g *floorGov2) Act(m Machine) error {
	g.acts++
	return m.SetClusterFreqMHz("A15", 1400)
}

// Every independent job starts from the same initial state, so identical
// jobs produce identical results — no carry-over.
func TestCampaignIndependentColdStarts(t *testing.T) {
	cc := campaignConfig()
	cc.Independent = true
	jobs := []Job{job(workload.Covariance()), job(workload.Covariance())}
	res, err := RunCampaign(cc, jobs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Jobs[0], res.Jobs[1]
	if a.ExecTimeS != b.ExecTimeS || a.EnergyJ != b.EnergyJ || a.AvgTempC != b.AvgTempC {
		t.Errorf("independent identical jobs differ: (%.3f s, %.1f J, %.2f °C) vs (%.3f s, %.1f J, %.2f °C)",
			a.ExecTimeS, a.EnergyJ, a.AvgTempC, b.ExecTimeS, b.EnergyJ, b.AvgTempC)
	}
	if res.TotalTimeS != a.ExecTimeS+b.ExecTimeS {
		t.Error("totals not aggregated in job order")
	}
}

// The parallel scheduler must be invisible in the results: a 4-worker
// independent campaign matches a 1-worker one exactly, job by job.
func TestCampaignIndependentParallelMatchesSerial(t *testing.T) {
	jobs := []Job{
		job(workload.Covariance()),
		job(workload.Syrk()),
		job(workload.Mvt()),
		job(workload.Covariance()),
	}
	serialCC := campaignConfig()
	serialCC.Independent = true
	serialCC.Workers = 1
	serial, err := RunCampaign(serialCC, jobs)
	if err != nil {
		t.Fatal(err)
	}
	parCC := campaignConfig()
	parCC.Independent = true
	parCC.Workers = 4
	parallel, err := RunCampaign(parCC, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Jobs) != len(parallel.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(serial.Jobs), len(parallel.Jobs))
	}
	for i := range serial.Jobs {
		s, p := serial.Jobs[i], parallel.Jobs[i]
		if s.ExecTimeS != p.ExecTimeS || s.EnergyJ != p.EnergyJ ||
			s.AvgTempC != p.AvgTempC || s.PeakTempC != p.PeakTempC ||
			s.TempVarC2 != p.TempVarC2 || s.FreqTransitions != p.FreqTransitions {
			t.Errorf("job %d differs between serial and parallel scheduling", i)
		}
	}
	if serial.TotalTimeS != parallel.TotalTimeS || serial.TotalEnergyJ != parallel.TotalEnergyJ ||
		serial.PeakTempC != parallel.PeakTempC {
		t.Error("aggregates differ between serial and parallel scheduling")
	}
	if len(serial.FinalTempsC) != len(parallel.FinalTempsC) {
		t.Fatal("final temps length differs")
	}
	for i := range serial.FinalTempsC {
		if serial.FinalTempsC[i] != parallel.FinalTempsC[i] {
			t.Error("final temps differ between serial and parallel scheduling")
			break
		}
	}
}

// floorGov is a minimal thermally safe governor for the campaign test:
// it pins the big cluster at 1400 MHz (the TEEM floor) and everything
// else at max, without importing internal/core (import cycle).
type floorGov struct{}

func (floorGov) Name() string     { return "floor" }
func (floorGov) PeriodS() float64 { return 0.5 }
func (floorGov) Start(m Machine) error {
	if err := m.SetClusterFreqMHz("A15", 1400); err != nil {
		return err
	}
	if err := m.SetClusterFreqMHz("A7", 1400); err != nil {
		return err
	}
	return m.SetClusterFreqMHz("MaliT628", 600)
}
func (floorGov) Act(m Machine) error {
	return m.SetClusterFreqMHz("A15", 1400)
}
