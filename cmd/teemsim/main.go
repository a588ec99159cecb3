// Command teemsim runs a single application on a simulated platform
// under a chosen DVFS policy and prints the run summary, optionally with
// Fig. 1 style temperature/frequency charts or a CSV trace. The hardware
// comes from the builtin platform catalog (-platform by name, default
// exynos5422) or a bundle JSON file.
//
// Usage:
//
//	teemsim -app CV -governor teem -big 3 -little 2 -partition 4 -chart
//	teemsim -app SR -governor ondemand -csv trace.csv
//	teemsim -app CV -platform merlin-m3 -governor teem
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"teem/internal/buildinfo"
	"teem/internal/core"
	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/platform"
	"teem/internal/sim"
	"teem/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("teemsim: ")

	var (
		appCode   = flag.String("app", "CV", "application code (2D, CV, GM, 2M, MV, S2, SR, CR)")
		govName   = flag.String("governor", "teem", "policy: teem, ondemand, performance, powersave, conservative")
		nBig      = flag.Int("big", 3, "big cores used")
		nLittle   = flag.Int("little", 2, "LITTLE cores used")
		partNum   = flag.Int("partition", 4, "CPU work-item share in eighths (0..8)")
		threshold = flag.Float64("threshold", 85, "TEEM thermal threshold (°C)")
		deltaMHz  = flag.Int("delta", 200, "TEEM frequency step (MHz)")
		floorMHz  = flag.Int("floor", 1400, "TEEM frequency floor (MHz)")
		noTrip    = flag.Bool("no-hw-protect", false, "disable the firmware thermal trip")
		chart     = flag.Bool("chart", false, "print temperature/frequency charts")
		csvPath   = flag.String("csv", "", "write the trace as CSV to this file")
		cold      = flag.Bool("cold", false, "start from ambient instead of the steady-regime protocol")
		platRef   = flag.String("platform", platform.DefaultName, "platform: builtin catalog name or bundle JSON file")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("teemsim"))
		return
	}

	app, err := workload.ByShort(*appCode)
	if err != nil {
		log.Fatal(err)
	}
	b, err := platform.Resolve(*platRef)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.Config{
		Platform:         b.SoC,
		Net:              b.Net,
		App:              app,
		Map:              mapping.Mapping{Big: *nBig, Little: *nLittle, UseGPU: *partNum < 8},
		Part:             mapping.Partition{Num: *partNum, Den: 8},
		DisableHWProtect: *noTrip,
	}
	switch *govName {
	case "teem":
		p := core.DefaultParams()
		p.ThresholdC = *threshold
		p.DeltaMHz = *deltaMHz
		p.FloorMHz = *floorMHz
		cfg.Governor = core.NewController(p)
	case "ondemand":
		cfg.Governor = governor.NewOndemand()
	case "performance":
		cfg.Governor = governor.Performance{}
	case "powersave":
		cfg.Governor = governor.Powersave{}
	case "conservative":
		cfg.Governor = governor.NewConservative()
	case "none":
		cfg.Governor = nil
	default:
		log.Fatalf("unknown governor %q", *govName)
	}

	var res *sim.Result
	if *cold {
		e, err := sim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err = e.Run()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		res, err = sim.RunWarm(cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("%s on %s, partition %d/8, governor %s\n",
		app.Name, cfg.Map, *partNum, *govName)
	fmt.Printf("  execution time : %.1f s (completed: %v)\n", res.ExecTimeS, res.Completed)
	fmt.Printf("  energy         : %.0f J (avg %.2f W)\n", res.EnergyJ, res.AvgPowerW)
	fmt.Printf("  big temperature: avg %.1f °C, peak %.1f °C, variance %.2f, gradient %.2f °C/s\n",
		res.AvgTempC, res.PeakTempC, res.TempVarC2, res.TempGradCps)
	fmt.Printf("  effective fbig : %.0f MHz, %d DVFS transitions, %d hardware trips\n",
		res.AvgBigFreqMHz, res.FreqTransitions, res.ThrottleEvents)

	if *chart {
		fmt.Println()
		bigName := b.SoC.Big().Name
		fmt.Print(res.Trace.RenderTempAndFreq(bigName, bigName, 72, 14))
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := res.Trace.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%d samples)\n", *csvPath, res.Trace.Len())
	}
}
