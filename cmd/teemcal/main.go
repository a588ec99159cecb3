// Command teemcal prints the thermal/power calibration of a platform
// model: steady-state temperatures per operating point, heating and
// cooling time scales, and the board power envelope. Use it to verify a
// platform description before running experiments, or to re-derive a
// catalog entry's calibration (docs/platforms.md). Everything it prints
// — the frequency ladder, node names, trip targets — derives from the
// selected platform, so it calibrates any catalog entry or bundle file,
// not just the Exynos.
//
// Usage:
//
//	teemcal
//	teemcal -app SR -big 4 -little 4
//	teemcal -platform harrier-s16
package main

import (
	"flag"
	"fmt"
	"log"

	"teem/internal/buildinfo"
	"teem/internal/mapping"
	"teem/internal/platform"
	"teem/internal/power"
	"teem/internal/report"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("teemcal: ")

	var (
		appCode = flag.String("app", "CV", "application used for the load cases")
		nBig    = flag.Int("big", 3, "big cores in the load mapping")
		nLittle = flag.Int("little", 2, "LITTLE cores in the load mapping")
		platRef = flag.String("platform", platform.DefaultName, "platform: builtin catalog name or bundle JSON file")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("teemcal"))
		return
	}

	b, err := platform.Resolve(*platRef)
	if err != nil {
		log.Fatal(err)
	}
	plat, net := b.SoC, b.Net
	app, err := workload.ByShort(*appCode)
	if err != nil {
		log.Fatal(err)
	}
	m := mapping.Mapping{Big: *nBig, Little: *nLittle, UseGPU: true}
	big, little, gpu := plat.Big(), plat.Little(), plat.GPU()

	// Power envelope.
	pm, err := power.NewModel(plat)
	if err != nil {
		log.Fatal(err)
	}
	idle, err := pm.Evaluate(power.IdleLoads(plat, 40), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform %s (%s): idle %.2f W (baseline %.2f W)\n\n",
		b.Name, b.Class, idle.TotalW(), plat.BoardBaselineW)

	// Steady-state ladder across big OPPs for the chosen load: six
	// points from the hardware throttle cap to the maximum frequency.
	capMHz := big.FloorOPP(plat.TripCapMHz).FreqMHz
	ladder := oppLadder(big, capMHz, 6)
	t := &report.Table{
		Title: fmt.Sprintf("steady-state temperatures, %s on %s (both chunks busy)",
			app.Name, m),
		Headers: []string{"big MHz", big.Name + " (°C)", gpu.Name + " (°C)", "pkg (°C)", "board (W)"},
	}
	bi, gi, pi := net.NodeIndex(big.Name), net.NodeIndex(gpu.Name), net.NodeIndex("pkg")
	for _, f := range ladder {
		cfg := sim.Config{
			Platform: plat, Net: net, App: app,
			Map: m, Part: mapping.Partition{Num: 4, Den: 8},
			Freq: mapping.FreqSetting{BigMHz: f, LittleMHz: little.MaxFreqMHz(), GPUMHz: gpu.MaxFreqMHz()},
		}
		e, err := sim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		st, err := e.SteadyTemps(1, 1)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(
			fmt.Sprintf("%d", f),
			fmt.Sprintf("%.1f", st[bi]),
			fmt.Sprintf("%.1f", st[gi]),
			fmt.Sprintf("%.1f", st[pi]),
			"",
		)
	}
	fmt.Println(t.Render())

	// Transient time scales against the platform's own trip points,
	// under full load (platform.FullLoadInjection: every cluster maxed,
	// big at the given frequency, leakage re-evaluated at the live
	// temperatures each step).
	cross := func(start []float64, target float64, bigMHz int, cooling bool) float64 {
		tm, err := thermal.NewModel(net, plat.AmbientC)
		if err != nil {
			log.Fatal(err)
		}
		if start != nil {
			if err := tm.SetTemps(start); err != nil {
				log.Fatal(err)
			}
		}
		temps := make([]float64, len(net.Nodes))
		inj := make([]float64, len(net.Nodes))
		for ts := 0.0; ts < 600; ts += 0.05 {
			tm.CopyTemps(temps)
			if err := platform.FullLoadInjection(b, pm, bigMHz, temps, inj); err != nil {
				log.Fatal(err)
			}
			if err := tm.Step(inj, 0.05); err != nil {
				log.Fatal(err)
			}
			if (!cooling && tm.Temp(bi) >= target) || (cooling && tm.Temp(bi) <= target) {
				return ts
			}
		}
		return -1
	}
	show := func(label string, v float64) {
		if v < 0 {
			fmt.Printf("%s:  never (steady state on the other side)\n", label)
			return
		}
		fmt.Printf("%s: %6.1f s\n", label, v)
	}
	maxMHz := big.MaxFreqMHz()
	show(fmt.Sprintf("cold start → %.0f °C at %d MHz", plat.TripC-10, maxMHz),
		cross(nil, plat.TripC-10, maxMHz, false))
	show(fmt.Sprintf("cold start → trip %.0f °C at %d MHz", plat.TripC, maxMHz),
		cross(nil, plat.TripC, maxMHz, false))
	// Cooling from a tripped chip (every node at most at the trip
	// point) down to the release temperature, at the hardware cap.
	tripped := make([]float64, len(net.Nodes))
	hot, err := platform.FullLoadSteady(b, pm, maxMHz)
	if err != nil {
		log.Fatal(err)
	}
	for i := range tripped {
		tripped[i] = min(hot[i], plat.TripC)
	}
	show(fmt.Sprintf("tripped %.0f → release %.0f °C at %d MHz", plat.TripC, plat.TripReleaseC, capMHz),
		cross(tripped, plat.TripReleaseC, capMHz, true))
}

// oppLadder picks n frequencies spanning the big cluster's OPP table
// from the hardware cap to the maximum, evenly by OPP index.
func oppLadder(c *soc.Cluster, fromMHz int, n int) []int {
	lo := c.OPPIndex(fromMHz)
	if lo < 0 {
		lo = 0
	}
	hi := c.NumOPPs() - 1
	if n > hi-lo+1 {
		n = hi - lo + 1
	}
	var freqs []int
	for k := 0; k < n; k++ {
		i := lo + k*(hi-lo)/(n-1)
		f := c.OPPs[i].FreqMHz
		if len(freqs) == 0 || freqs[len(freqs)-1] != f {
			freqs = append(freqs, f)
		}
	}
	return freqs
}
