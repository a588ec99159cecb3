// Command teemeval runs the full paper evaluation on the simulated
// Exynos 5422: the Fig. 1 motivation comparison, the Fig. 5 (a/b/c)
// three-approach comparison, the §V.D memory table, the design-space
// counts of Eqs. (1)–(2), and the controller ablations.
//
// Usage:
//
//	teemeval                 # everything at mapping 2L+4B
//	teemeval -only fig5      # a single experiment
//	teemeval -big 3          # Fig. 5 at mapping 2L+3B
//	teemeval -workers 8      # bound the parallel worker pool
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"teem/internal/buildinfo"
	"teem/internal/experiments"
	"teem/internal/mapping"
)

// experimentNames are the values -only accepts, in run order.
var experimentNames = []string{"fig1", "fig5", "memory", "space", "ablations"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("teemeval: ")

	var (
		only    = flag.String("only", "", "run one experiment: "+strings.Join(experimentNames, ", "))
		nBig    = flag.Int("big", 4, "Fig. 5 mapping: big cores")
		nLittle = flag.Int("little", 2, "Fig. 5 mapping: LITTLE cores")
		workers = flag.Int("workers", 0, "parallel experiment workers (0 = one per CPU, 1 = serial)")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("teemeval"))
		return
	}
	if *only != "" && !slices.Contains(experimentNames, *only) {
		log.Printf("unknown experiment %q for -only (want one of: %s)", *only, strings.Join(experimentNames, ", "))
		os.Exit(2)
	}

	env, err := experiments.NewEnvWith(experiments.Options{Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	m := mapping.Mapping{Big: *nBig, Little: *nLittle, UseGPU: true}

	run := func(name string, fn func() error) {
		if *only != "" && *only != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("fig1", func() error {
		r, err := env.Fig1()
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
		return nil
	})
	run("fig5", func() error {
		r, err := env.Fig5(m)
		if err != nil {
			return err
		}
		fmt.Println(r.RenderEnergy())
		fmt.Println(r.RenderTemperature())
		fmt.Println(r.RenderPerformance())
		return nil
	})
	run("memory", func() error {
		fmt.Println(env.Memory().Render())
		return nil
	})
	run("space", func() error {
		r, err := env.DesignSpace()
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
		return nil
	})
	run("ablations", func() error {
		th, err := env.ThresholdSweep([]float64{80, 83, 85, 88, 91, 94})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderSweep(
			"Ablation — software thermal threshold (paper default 85 °C)", "threshold (°C)", th))
		d, err := env.DeltaSweep([]int{100, 200, 400})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderSweep(
			"Ablation — step-down δ (paper default 200 MHz)", "δ (MHz)", d))
		f, err := env.FloorSweep([]int{1000, 1200, 1400, 1600, 1800})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderSweep(
			"Ablation — frequency floor (paper default 1400 MHz)", "floor (MHz)", f))
		return nil
	})
}
