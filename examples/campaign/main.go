// Campaign: back-to-back execution of several applications with the
// thermal state carried between them — the situation a real device lives
// in. Later jobs inherit a hot chip: an unmanaged campaign degrades and
// throttles progressively, while a TEEM-regulated campaign stays inside
// its thermal band from the first job to the last.
//
// A campaign is engines in a loop. Each job starts from the node
// temperatures the previous engine ended at (SimConfig.InitialTempsC,
// Engine.FinalTemps), and the two-second app-launch gap between jobs is
// an idle engine: no App, MinTimeS 2 and every cluster at its lowest
// operating point.
//
// The final section contrasts this with an independent batch: the same
// jobs, each started on a cold chip, the way a design-space study runs
// separate experiments.
package main

import (
	"fmt"
	"log"

	"teem"
)

func main() {
	log.SetFlags(0)

	plat, net := teem.Exynos5422(), teem.Exynos5422Thermal()
	apps := []string{"CV", "SR", "2M", "CR"}
	lowest := teem.FreqSetting{
		BigMHz:    plat.Big().MinFreqMHz(),
		LittleMHz: plat.Little().MinFreqMHz(),
		GPUMHz:    plat.GPU().MinFreqMHz(),
	}

	// run simulates cfg on the shared chip and mapping from the node
	// temperatures temps (nil: ambient) and returns the result and the
	// temperatures the engine ends at.
	run := func(cfg teem.SimConfig, temps []float64) (*teem.SimResult, []float64) {
		cfg.Platform, cfg.Net, cfg.InitialTempsC = plat, net, temps
		cfg.Map = teem.Mapping{Big: 4, Little: 2, UseGPU: true}
		e, err := teem.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			log.Fatal(err)
		}
		return res, e.FinalTemps()
	}
	job := func(i int, gov teem.Governor, temps []float64) (*teem.SimResult, []float64) {
		app, err := teem.AppByShort(apps[i])
		if err != nil {
			log.Fatal(err)
		}
		return run(teem.SimConfig{App: app, Part: teem.Partition{Num: 4, Den: 8}, Governor: gov}, temps)
	}

	campaign := func(name string, gov func() teem.Governor) (energyJ, peakC float64) {
		fmt.Printf("\n%s:\n", name)
		var temps []float64
		var timeS float64
		trips := 0
		for i := range apps {
			if i > 0 {
				_, temps = run(teem.SimConfig{Freq: lowest, MinTimeS: 2}, temps)
			}
			var jr *teem.SimResult
			jr, temps = job(i, gov(), temps)
			fmt.Printf("  job %d (%-2s): %5.1f s  %4.0f J  avg %.1f °C  peak %.1f °C  trips %d\n",
				i+1, apps[i], jr.ExecTimeS, jr.EnergyJ, jr.AvgTempC, jr.PeakTempC, jr.ThrottleEvents)
			timeS += jr.ExecTimeS
			energyJ += jr.EnergyJ
			peakC = max(peakC, jr.PeakTempC)
			trips += jr.ThrottleEvents
		}
		fmt.Printf("  total: %.1f s, %.0f J, campaign peak %.1f °C, %d hardware trips\n",
			timeS, energyJ, peakC, trips)
		return energyJ, peakC
	}

	teemGov := func() teem.Governor { return teem.NewController(teem.DefaultParams()) }
	unmanagedJ, unmanagedPeak := campaign("unmanaged (performance governor + TMU)", teem.NewPerformance)
	managedJ, managedPeak := campaign("TEEM-regulated", teemGov)

	fmt.Printf("\nTEEM across the campaign: %.1f%% less energy, %.1f °C lower peak\n",
		100*(unmanagedJ-managedJ)/unmanagedJ, unmanagedPeak-managedPeak)

	fmt.Printf("\nindependent batch (TEEM):\n")
	var timeS, energyJ float64
	for i := range apps {
		jr, _ := job(i, teemGov(), nil)
		fmt.Printf("  job %d (%-2s): %5.1f s  %4.0f J  avg %.1f °C  peak %.1f °C\n",
			i+1, apps[i], jr.ExecTimeS, jr.EnergyJ, jr.AvgTempC, jr.PeakTempC)
		timeS += jr.ExecTimeS
		energyJ += jr.EnergyJ
	}
	fmt.Printf("  total: %.1f s, %.0f J — cold starts, no carry-over: every job sees the same chip\n",
		timeS, energyJ)
}
